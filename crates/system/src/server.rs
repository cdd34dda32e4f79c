//! The simulation driver: builds a configured server, runs a workload (or
//! mix) with warmup, and harvests a [`RunReport`].
//!
//! Methodology follows the paper §V: the same workload is deployed on all
//! active cores (or one workload per core for mixes), simulation warms up
//! for a fixed instruction count per core, statistics reset, and the
//! measured window ends when every active core has retired its
//! instruction budget (a core that finishes early keeps executing to
//! maintain memory pressure, but its IPC is frozen at its finish line —
//! ChampSim semantics).

use std::io;
use std::path::PathBuf;
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, Once};
use std::time::Duration;

use coaxial_cache::{CalmStats, HierStats, Hierarchy, HierarchyConfig, PrefillState};
use coaxial_cpu::{Core, CoreParams, FileTrace, TraceOp, TraceSource};
use coaxial_cxl::CxlMemory;
use coaxial_dram::{ChannelStats, MemoryBackend, MultiChannel};
use coaxial_sim::{CheckpointStore, Cycle, KeyHasher};
use coaxial_telemetry::{MetricsRegistry, NullTelemetry, TelemetrySink};
use coaxial_workloads::Workload;

use crate::config::{FunctionalConfig, MemorySystemKind, SystemConfig};
use crate::engine::{self, EngineKind, EngineStats, RunOutcome, RunParams};

/// Default measured instructions per core. The paper runs 200 M after
/// 50 M of warmup on a cluster; this reproduction defaults to a laptop-
/// scale budget and honours `COAXIAL_INSTR` / `COAXIAL_WARMUP` overrides.
pub const DEFAULT_INSTRUCTIONS: u64 = 120_000;
pub const DEFAULT_WARMUP: u64 = 20_000;

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub config_name: String,
    pub workload_names: Vec<String>,
    /// Mean per-core IPC over active cores.
    pub ipc: f64,
    pub per_core_ipc: Vec<f64>,
    /// Demand LLC misses per kilo-instruction (aggregate).
    pub mpki: f64,
    /// Mean L2-miss latency components, ns: (on-chip, queue, DRAM, CXL).
    pub breakdown_ns: (f64, f64, f64, f64),
    /// Mean total L2-miss latency, ns.
    pub l2_miss_latency_ns: f64,
    /// Achieved memory bandwidth, GB/s (reads, writes).
    pub read_gbs: f64,
    pub write_gbs: f64,
    /// Bandwidth utilization relative to this system's own DDR peak.
    pub utilization: f64,
    /// Utilization expressed against the *baseline* single channel
    /// (shows absolute traffic growth, Fig. 5 bottom).
    pub bandwidth_gbs: f64,
    pub llc_miss_ratio: f64,
    /// Mean (TX, RX) CXL link utilization (None on the DDR baseline).
    pub cxl_link_utilization: Option<(f64, f64)>,
    pub calm: CalmStats,
    /// Raw hierarchy statistics.
    pub hier: HierStats,
    /// Raw aggregated DDR statistics.
    pub ddr: ChannelStats,
    /// Measured-window length in cycles.
    pub cycles: Cycle,
    /// Per-core retired instructions in the measured window.
    pub instructions: u64,
}

impl RunReport {
    /// Speedup of this run over a baseline run (IPC ratio).
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        if baseline.ipc == 0.0 {
            0.0
        } else {
            self.ipc / baseline.ipc
        }
    }
}

/// The one prefill store: content-addressed warmed post-prefill machine
/// state, keyed by [`prefill_state_key`] — a canonical hash of the
/// *functional* config slice. Every timing-only sibling of a run (CXL
/// latency, DRAM grade, CALM policy, prefetch distance — anything in
/// `TimingConfig`) restores the same snapshot instead of re-simulating
/// prefill. The key is sound because [`warm`] takes the functional half
/// and the trace sources and nothing else. The memory tier is bounded by
/// `COAXIAL_PREFILL_CACHE_MB`; `COAXIAL_CHECKPOINT_DIR` adds a disk tier
/// that survives process restarts. Counters surface as
/// `server.checkpoint.state.*` via [`checkpoint_metrics`].
static PREFILL_STATE: LazyLock<Mutex<CheckpointStore<PrefillState>>> = LazyLock::new(|| {
    Mutex::new(CheckpointStore::new(
        prefill_cache_budget(),
        coaxial_sim::env::checkpoint_dir(),
        "prefill-state",
    ))
});

/// Lock a prefill store. A job that panicked while holding the lock
/// poisoned it; the store is a cache, so recovery empties its memory tier
/// and clears the poison instead of failing every later run of a
/// long-lived `coaxial serve`. The disk tier is published by atomic rename,
/// so it cannot hold a torn entry and stays.
fn lock_store(
    store: &Mutex<CheckpointStore<PrefillState>>,
) -> MutexGuard<'_, CheckpointStore<PrefillState>> {
    store.lock().unwrap_or_else(|poisoned| {
        let mut guard = poisoned.into_inner();
        guard.clear_memory();
        store.clear_poison();
        guard
    })
}

/// Above this budget the prefill working set outgrows the host LLC and the
/// restore path turns memory-bandwidth-bound: the 288-run sweep is flat
/// from 32–128 MB and ~40% slower at 256 MB (see `env::prefill_cache_mb`).
/// Those figures were measured when a cache way cost 17 B (tag, LRU stamp,
/// dirty flag) and a second store of the same budget parked access
/// streams; at 8 B a way, the one store now holds about twice as many
/// states.
const PREFILL_BUDGET_CLIFF_MB: u64 = 128;

static BUDGET_WARNING: Once = Once::new();

/// Byte budget of the prefill store's memory tier. Warns once per process
/// when the knob is past the measured performance cliff.
fn prefill_cache_budget() -> u64 {
    let mb = coaxial_sim::env::prefill_cache_mb();
    if mb > PREFILL_BUDGET_CLIFF_MB {
        BUDGET_WARNING.call_once(|| {
            eprintln!(
                "coaxial: COAXIAL_PREFILL_CACHE_MB={mb} exceeds the measured {PREFILL_BUDGET_CLIFF_MB} MB \
                 cliff; restores go memory-bandwidth-bound past it. Prefer COAXIAL_CHECKPOINT_DIR \
                 for large retained sets (disk tier keeps evicted snapshots)."
            );
        });
    }
    mb * 1024 * 1024
}

/// Canonical content address of a warmed prefill state: every functional
/// field plus the per-core workload names. Timing fields are deliberately
/// absent — that is the whole point of the store, and [`warm`] cannot
/// read them. The domain's version names the `PrefillState` encoding: the
/// disk tier never overwrites a file, so an old-format file under an
/// unchanged key would fail to decode on every run and never be replaced.
fn prefill_state_key(names: &[String], func: &FunctionalConfig) -> u128 {
    let mut h = KeyHasher::new("coaxial/prefill-state/v2");
    h.write_u64(names.len() as u64);
    for n in names {
        h.write_str(n);
    }
    h.write_u64(func.seed);
    h.write_u64(func.cores as u64);
    h.write_u64(func.active_cores as u64);
    h.write_u64(func.llc_mb_per_core.to_bits());
    h.finish()
}

/// Export the prefill store's counters into `reg` under
/// `server.checkpoint.state.*`. The counters are process-wide (the store is
/// shared across runs and threads), so sweep reports see the cumulative
/// numbers.
pub fn checkpoint_metrics(reg: &mut MetricsRegistry) {
    let c = lock_store(&PREFILL_STATE).counters();
    reg.set_counter("server.checkpoint.state.mem_hits", c.mem_hits);
    reg.set_counter("server.checkpoint.state.disk_hits", c.disk_hits);
    reg.set_counter("server.checkpoint.state.misses", c.misses);
    reg.set_counter("server.checkpoint.state.inserts", c.inserts);
    reg.set_counter("server.checkpoint.state.evictions", c.evictions);
    reg.set_counter("server.checkpoint.state.disk_errors", c.disk_errors);
    reg.set_gauge("server.checkpoint.state.entries", c.entries as f64);
    reg.set_gauge("server.checkpoint.state.bytes", c.bytes as f64);
    let over = coaxial_sim::env::prefill_cache_mb() > PREFILL_BUDGET_CLIFF_MB;
    reg.set_gauge("server.checkpoint.budget_over_cliff", f64::from(u8::from(over)));
}

/// Raw counters of one measured window — a full-detail run, or a sampled
/// run's aggregate over its intervals — for [`Simulation::report`].
pub(crate) struct Window {
    pub(crate) ipc: f64,
    pub(crate) per_core_ipc: Vec<f64>,
    pub(crate) hier: HierStats,
    pub(crate) ddr: ChannelStats,
    /// Instructions retired inside the window, summed over cores.
    pub(crate) retired: u64,
    pub(crate) cxl_link_utilization: Option<(f64, f64)>,
    pub(crate) cycles: Cycle,
    pub(crate) instructions: u64,
}

/// What a run's setup ([`Simulation::with_warmed_hierarchy`]) and its
/// detailed spans, summed, record for the metrics and `COAXIAL_DEBUG`.
#[derive(Default)]
pub(crate) struct RunLog {
    pub(crate) restored: bool,
    pub(crate) prefill_wall: Duration,
    pub(crate) loop_wall: Duration,
    engine: &'static str,
    pub(crate) cycles: Cycle,
    pub(crate) stats: EngineStats,
}

/// Where each core's access stream comes from.
pub enum TraceSources {
    /// One registry workload per core (replicated for homogeneous runs).
    Registry(Vec<&'static Workload>),
    /// A captured `.cxtr` trace on every core (see `coaxial_cpu::tracefile`):
    /// its path, for the report, and its ops, read once and shared by every
    /// core's cursor.
    File(PathBuf, Arc<[TraceOp]>),
}

impl TraceSources {
    /// The trace stream for core `i`.
    pub(crate) fn trace_for(&self, i: usize, seed: u64) -> Box<dyn TraceSource + Send> {
        match self {
            Self::Registry(workloads) => workloads[i].trace(coaxial_sim::small_u32(i), seed),
            Self::File(_, ops) => Box::new(FileTrace::shared(Arc::clone(ops))),
        }
    }

    /// Workload names for the report and the checkpoint keys.
    pub(crate) fn names(&self) -> Vec<String> {
        match self {
            Self::Registry(workloads) => workloads.iter().map(|w| w.name.to_string()).collect(),
            Self::File(path, _) => vec![path.display().to_string()],
        }
    }
}

/// Warm the cache arrays cold: the functional prefill that stands in for
/// the paper's 50 M-instruction warmup. Each active core streams its own
/// accesses through the arrays, one round of an LLC's worth at a time,
/// until the LLC is effectively full or the working set is exhausted, so
/// the measured window starts at dirty steady state — evictions, and
/// therefore memory write traffic, flow from the first cycle. The
/// generators run here, and the arrays warm in the two stages of
/// [`PrefillState::walk`]: the L1s on this thread, the L2s and the LLC on
/// one helper.
///
/// The warmed state is keyed by the functional half alone and restored by
/// every timing sibling; this signature is what makes that sound, since
/// nothing it takes can reach `TimingConfig`.
pub fn warm(func: &FunctionalConfig, sources: &TraceSources) -> PrefillState {
    let mut state = PrefillState::new(&func.geometry());
    let llc_lines_total =
        coaxial_sim::trunc_usize(func.llc_mb_per_core * 1024.0 * 1024.0 / 64.0) * func.cores;
    let round_ops = (llc_lines_total / func.active_cores.max(1)).max(4096);
    let mut traces: Vec<_> =
        (0..func.active_cores).map(|i| sources.trace_for(i, func.seed ^ 0xF111)).collect();
    state.walk(|walk| {
        for _round in 0..8 {
            for (i, trace) in traces.iter_mut().enumerate() {
                let core = coaxial_sim::small_u32(i);
                for _ in 0..round_ops {
                    // next_access advances the generator exactly like
                    // next_op but skips the gap math the prefill discards.
                    let (line, is_store) = trace.next_access();
                    walk.access(core, line, is_store);
                }
            }
            if walk.llc_valid() >= llc_lines_total * 9 / 10 {
                break;
            }
        }
    });
    state
}

/// Builder for one simulation run. The sampling driver
/// (`crate::sampling`) reuses the builder, the setup and the detailed span
/// without widening the public API.
pub struct Simulation {
    pub(crate) config: SystemConfig,
    sources: TraceSources,
    pub(crate) instructions: u64,
    warmup: u64,
    max_cycles: Cycle,
    /// Hot-loop cycle skipping; `None` follows `COAXIAL_SKIP` (default on).
    cycle_skip: Option<bool>,
    /// Run-loop engine; `None` follows `COAXIAL_ENGINE` (default: event).
    engine: Option<EngineKind>,
}

impl Simulation {
    /// Homogeneous run: the same workload on every active core (§V).
    pub fn new(config: SystemConfig, workload: &'static Workload) -> Self {
        let workloads = vec![workload; config.functional.cores];
        Self::with_sources(config, TraceSources::Registry(workloads))
    }

    /// Heterogeneous run (Fig. 6 mixes): one workload per core.
    pub fn new_mix(config: SystemConfig, mix: &[&'static Workload]) -> Self {
        let cores = config.functional.cores;
        assert!(
            mix.len() == cores,
            "mix must name one workload per core: {} workloads for {cores} cores",
            mix.len()
        );
        Self::with_sources(config, TraceSources::Registry(mix.to_vec()))
    }

    fn with_sources(config: SystemConfig, sources: TraceSources) -> Self {
        let instructions = coaxial_sim::env::instructions(DEFAULT_INSTRUCTIONS);
        let warmup = coaxial_sim::env::warmup(DEFAULT_WARMUP);
        Self {
            config,
            sources,
            instructions,
            warmup,
            max_cycles: 0,
            cycle_skip: None,
            engine: None,
        }
    }

    /// Replay a captured trace file on every active core. The file is
    /// read here, once; a missing, empty or malformed file is an error.
    pub fn from_trace_file(config: SystemConfig, path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let ops = FileTrace::load(&path)?;
        Ok(Self::with_sources(config, TraceSources::File(path, ops)))
    }

    /// Measured instructions per core (overrides `COAXIAL_INSTR`).
    pub fn instructions_per_core(mut self, n: u64) -> Self {
        self.instructions = n;
        self
    }

    /// Warmup instructions per core (overrides `COAXIAL_WARMUP`).
    pub fn warmup(mut self, n: u64) -> Self {
        self.warmup = n;
        self
    }

    /// Hard cycle cap (default: scaled to the instruction budget).
    pub fn max_cycles(mut self, n: Cycle) -> Self {
        self.max_cycles = n;
        self
    }

    /// Force hot-loop cycle skipping on or off (overrides `COAXIAL_SKIP`).
    /// Skipping is statistically invisible: reports are bit-identical either
    /// way (see DESIGN.md "Performance & parallelism").
    pub fn cycle_skip(mut self, on: bool) -> Self {
        self.cycle_skip = Some(on);
        self
    }

    /// Force a run-loop engine (overrides `COAXIAL_ENGINE`). Both engines
    /// produce bit-identical reports, telemetry, and metrics; `Lockstep` is
    /// the slow differential-testing oracle (see `engine` module docs).
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = Some(kind);
        self
    }

    /// Run to completion and report.
    pub fn run(self) -> RunReport {
        self.run_with_telemetry(NullTelemetry).0
    }

    /// Run with a telemetry sink attached. Returns the (unchanged)
    /// [`RunReport`], the sink carrying whatever it recorded, and a
    /// [`MetricsRegistry`] snapshot of hierarchy, backend, and prefill-cache
    /// metrics. `run()` is exactly `run_with_telemetry(NullTelemetry).0`, so
    /// figure/table outputs are byte-identical whether or not telemetry is
    /// attached.
    pub fn run_with_telemetry<T: TelemetrySink>(self, tel: T) -> (RunReport, T, MetricsRegistry) {
        match &self.config.timing.memory {
            MemorySystemKind::DirectDdr { channels } => {
                let backend = MultiChannel::new(&self.config.timing.dram, *channels);
                self.run_with_sink(backend, tel)
            }
            MemorySystemKind::Cxl { link, channels } => {
                let backend = CxlMemory::new(link, &self.config.timing.dram, *channels);
                self.run_with_sink(backend, tel)
            }
        }
    }

    /// Table III around this config's channels, LLC and CALM policy, with
    /// its timing knobs applied.
    pub(crate) fn hierarchy_config(&self) -> HierarchyConfig {
        let cfg = &self.config;
        let func = &cfg.functional;
        HierarchyConfig {
            mem_channels: cfg.ddr_channels(),
            seed: func.seed ^ 0x11EC,
            calm_epoch: cfg.timing.calm_epoch,
            prefetch: cfg.timing.prefetch,
            l2_mshrs: cfg.timing.l2_mshrs,
            ..HierarchyConfig::table_iii(
                func.cores,
                cfg.ddr_channels(),
                func.llc_mb_per_core,
                cfg.peak_bandwidth_gbs(),
                cfg.timing.calm,
            )
        }
    }

    /// Turn a measured window's counters into a [`RunReport`]: the one
    /// place MPKI, bandwidth and utilization are derived, for full-detail
    /// and sampled runs alike.
    pub(crate) fn report(&self, w: Window) -> RunReport {
        let mpki =
            if w.retired == 0 { 0.0 } else { w.hier.llc_misses as f64 * 1000.0 / w.retired as f64 };
        let window_ns = coaxial_sim::cycles_to_ns(w.ddr.elapsed_cycles);
        let (read_gbs, write_gbs) = if window_ns > 0.0 {
            (w.ddr.read_bytes as f64 / window_ns, w.ddr.write_bytes as f64 / window_ns)
        } else {
            (0.0, 0.0)
        };
        let peak = self.config.peak_bandwidth_gbs();
        RunReport {
            config_name: self.config.name.clone(),
            workload_names: self.sources.names(),
            ipc: w.ipc,
            per_core_ipc: w.per_core_ipc,
            mpki,
            breakdown_ns: w.hier.breakdown_ns(),
            l2_miss_latency_ns: coaxial_sim::cycles_f64_to_ns(w.hier.mean_l2_miss_latency_cycles()),
            read_gbs,
            write_gbs,
            utilization: (read_gbs + write_gbs) / peak,
            bandwidth_gbs: read_gbs + write_gbs,
            llc_miss_ratio: w.hier.llc_miss_ratio(),
            cxl_link_utilization: w.cxl_link_utilization,
            calm: w.hier.calm,
            hier: w.hier,
            ddr: w.ddr,
            cycles: w.cycles,
            instructions: w.instructions,
        }
    }

    /// The warmed cache arrays for this run, and whether the prefill store
    /// supplied them. A registry run takes them from `PREFILL_STATE` when a
    /// state of its geometry is there (a disk checkpoint from another build
    /// may not fit) and otherwise warms them cold with [`warm`] and inserts
    /// them; a trace-file run always warms (a path does not pin contents).
    /// Both drivers build their hierarchy around what this returns, so
    /// cold and restored runs share one path.
    pub(crate) fn warmed_state(&self) -> (Arc<PrefillState>, bool) {
        let func = &self.config.functional;
        let key = matches!(self.sources, TraceSources::Registry(_))
            .then(|| prefill_state_key(&self.sources.names(), func));
        if let Some(key) = key {
            // Its own statement, so the store's lock is released at once.
            let restored = lock_store(&PREFILL_STATE).get(key);
            if let Some(state) = restored.filter(|state| state.fits(&func.geometry())) {
                return (state, true);
            }
        }
        let state = Arc::new(warm(func, &self.sources));
        if let Some(key) = key {
            lock_store(&PREFILL_STATE).insert(key, Arc::clone(&state), state.approx_bytes());
        }
        (state, false)
    }

    /// The setup both drivers share: the hierarchy around the warmed arrays
    /// of [`Self::warmed_state`] (one copy of a state the store keeps) and
    /// a fresh generator per active core, for the timed part. Times both on
    /// the host clock and prints the one `COAXIAL_DEBUG` line.
    pub(crate) fn with_warmed_hierarchy<B: MemoryBackend, T: TelemetrySink, R>(
        &self,
        backend: B,
        tel: T,
        timed: impl FnOnce(Hierarchy<B, T>, Vec<Box<dyn TraceSource>>, &mut RunLog) -> R,
    ) -> (R, RunLog) {
        #[expect(clippy::disallowed_types, reason = "host wall time, reported and never simulated")]
        let t0 = std::time::Instant::now();
        let (state, restored) = self.warmed_state();
        let arrays = Arc::unwrap_or_clone(state);
        let hierarchy = Hierarchy::with_telemetry(self.hierarchy_config(), backend, tel, arrays);
        let mut log = RunLog { restored, prefill_wall: t0.elapsed(), ..RunLog::default() };
        let func = &self.config.functional;
        let gens = (0..func.active_cores).map(|i| self.sources.trace_for(i, func.seed) as _);
        let out = timed(hierarchy, gens.collect(), &mut log);
        log.loop_wall = t0.elapsed().saturating_sub(log.prefill_wall);
        if coaxial_sim::env::debug() {
            let RunLog { engine, cycles, stats, .. } = log;
            let (skipped, blocked, ticks) =
                (stats.skipped_cycles, stats.blocked_iters, stats.core_ticks);
            let pct = 100.0 * skipped as f64 / cycles.max(1) as f64;
            let (prefill_s, loop_s) = (log.prefill_wall.as_secs_f64(), log.loop_wall.as_secs_f64());
            eprintln!(
                "engine-debug: engine={engine} now={cycles} skipped={skipped} ({pct:.1}%) \
                 blocked_iters={blocked} core_ticks={ticks} prefill={prefill_s:.3}s \
                 (restored={restored}) loop={loop_s:.3}s"
            );
        }
        (out, log)
    }

    /// The timed part of a full-detail run and of each sampled interval,
    /// under the builder's cycle cap or `(warmup + instructions) × 120`:
    /// the cores, the outcome and each core's IPC at its finish line (or
    /// the cap). The one place the engine and cycle skipping are resolved.
    pub(crate) fn detailed_span<B: MemoryBackend, T: TelemetrySink>(
        &self,
        hierarchy: &mut Hierarchy<B, T>,
        gens: Vec<Box<dyn TraceSource>>,
        (warmup, instructions): (u64, u64),
        log: &mut RunLog,
    ) -> (Vec<Core>, RunOutcome, Vec<f64>) {
        hierarchy.finish_prefill();
        let mut cores: Vec<Core> = gens
            .into_iter()
            .enumerate()
            .map(|(i, g)| Core::new(coaxial_sim::small_u32(i), CoreParams::default(), g))
            .collect();
        let max_cycles = if self.max_cycles > 0 {
            self.max_cycles
        } else {
            // Generous cap: even at IPC 0.01 the budget fits.
            (warmup + instructions) * 120
        };
        let skip = self.cycle_skip.unwrap_or_else(coaxial_sim::env::cycle_skip);
        let params = RunParams { warmup, instructions, max_cycles, skip };
        let kind = self.engine.unwrap_or_else(EngineKind::from_env);
        let outcome = match kind {
            EngineKind::Event => engine::run_event(&params, &mut cores, hierarchy),
            EngineKind::Lockstep => {
                let mut o = engine::run_lockstep(&params, &mut cores, hierarchy);
                // Every core ticks on each visited cycle, and each cycle
                // before the exit was either visited or skipped.
                o.stats.core_ticks = cores.len() as u64 * (o.now - o.stats.skipped_cycles);
                o
            }
        };
        log.engine = kind.name();
        log.cycles += outcome.now;
        log.stats.skipped_cycles += outcome.stats.skipped_cycles;
        log.stats.blocked_iters += outcome.stats.blocked_iters;
        log.stats.core_ticks += outcome.stats.core_ticks;
        let per_core_ipc = cores
            .iter()
            .zip(&outcome.finish_ipc)
            .map(|(c, finish)| finish.unwrap_or_else(|| c.ipc()))
            .collect();
        (cores, outcome, per_core_ipc)
    }

    fn run_with_sink<B: MemoryBackend, T: TelemetrySink>(
        self,
        backend: B,
        tel: T,
    ) -> (RunReport, T, MetricsRegistry) {
        let budget = (self.warmup, self.instructions);
        let (((cores, outcome, per_core_ipc), hierarchy), log) =
            self.with_warmed_hierarchy(backend, tel, |mut h, gens, log| {
                (self.detailed_span(&mut h, gens, budget, log), h)
            });
        let report = self.report(Window {
            ipc: per_core_ipc.iter().sum::<f64>() / per_core_ipc.len() as f64,
            per_core_ipc,
            hier: hierarchy.stats(),
            ddr: hierarchy.backend().ddr_stats(),
            retired: cores.iter().map(|c| c.retired.min(self.instructions)).sum(),
            cxl_link_utilization: hierarchy.backend().link_utilization(),
            cycles: outcome.now,
            instructions: self.instructions,
        });
        // Harvest-time metrics snapshot: hierarchy counters, backend
        // per-channel counters, and the process-wide prefill caches.
        let mut metrics = MetricsRegistry::new();
        report.hier.export_metrics(&mut metrics, "hier");
        hierarchy.backend().export_metrics(&mut metrics, "mem");
        // Engine skip-path counters: identical across engines by the
        // visited-cycle equivalence argument (see engine.rs module docs),
        // so the differential test may compare them byte-for-byte.
        metrics.set_counter("engine.skipped_cycles", outcome.stats.skipped_cycles);
        metrics.set_counter("engine.blocked_iters", outcome.stats.blocked_iters);
        // Per-core OoO pressure counters (ROADMAP telemetry item). Both are
        // exact under fast-forward replay (see `Core::fast_forward`), so the
        // engine-differential comparison covers them byte-for-byte.
        for c in &cores {
            metrics
                .set_counter(&format!("cpu.core{}.rob_occupancy_cum", c.id()), c.rob_occupancy_cum);
            metrics.set_counter(
                &format!("cpu.core{}.issue_stall_cycles", c.id()),
                c.issue_stall_cycles,
            );
            metrics.set_counter(&format!("cpu.core{}.retire_stall_cycles", c.id()), c.stall_cycles);
        }
        // Prefill/run wall time and checkpoint behaviour. Wall times are
        // host-dependent and the checkpoint counters are process-cumulative;
        // everything under `server.prefill.` / `server.checkpoint.` is
        // excluded from the engine-differential comparison for that reason.
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        metrics.set_counter("server.prefill.wall_ns", ns(log.prefill_wall));
        metrics.set_counter("server.prefill.loop_wall_ns", ns(log.loop_wall));
        metrics.set_counter("server.prefill.restored", u64::from(log.restored));
        checkpoint_metrics(&mut metrics);
        (report, hierarchy.into_telemetry(), metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coaxial_cache::{CacheGeometry, CalmPolicy};
    use coaxial_telemetry::MetricValue;

    fn quick(config: SystemConfig, wl: &str) -> RunReport {
        let w = Workload::by_name(wl).expect("workload exists");
        Simulation::new(config, w).instructions_per_core(4_000).warmup(1_000).run()
    }

    /// Cold warms running side by side on the job pool, each walking its
    /// L2s and LLC on its own helper thread, leave the arrays the same
    /// warms leave one after another.
    #[test]
    fn concurrent_cold_warms_equal_serial_ones() {
        use coaxial_sim::Snapshot;
        // Four-core slices keep the warms small: (config, workload, active).
        let inputs: Vec<(FunctionalConfig, &'static Workload)> = [
            (SystemConfig::ddr_baseline(), "mcf", 4),
            (SystemConfig::ddr_baseline(), "lbm", 4),
            (SystemConfig::coaxial_4x(), "PageRank", 3),
            (SystemConfig::coaxial_4x(), "stream-copy", 4),
        ]
        .into_iter()
        .map(|(config, wl, active)| {
            let func = config.with_cores(4).with_active_cores(active).functional;
            (func, Workload::by_name(wl).expect("workload exists"))
        })
        .collect();
        let encoded = |(func, w): &(FunctionalConfig, &'static Workload)| {
            let mut out = Vec::new();
            warm(func, &TraceSources::Registry(vec![w; func.cores])).encode(&mut out);
            out
        };
        let serial: Vec<Vec<u8>> = inputs.iter().map(encoded).collect();
        let concurrent = crate::runner::parallel_map_jobs(&inputs, inputs.len(), encoded);
        for ((func, w), (one, other)) in inputs.iter().zip(serial.iter().zip(&concurrent)) {
            assert!(one == other, "{} on {} cores: concurrent warm differs", w.name, func.cores);
        }
    }

    #[test]
    fn poisoned_checkpoint_store_recovers_as_an_empty_cache() {
        // A local store: poisoning a process-wide one would fail the tests
        // that run beside this one.
        let store = Mutex::new(CheckpointStore::new(1 << 20, None, "poison-test"));
        let entry = || Arc::new(PrefillState::new(&CacheGeometry::table_iii(1, 0.25)));
        lock_store(&store).insert(1, entry(), 64);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = store.lock().unwrap();
                panic!("job panicked under the store lock");
            })
            .join()
        });
        assert!(panicked.is_err() && store.is_poisoned());
        let mut guard = lock_store(&store);
        assert_eq!(guard.counters().entries, 0, "the memory tier was emptied");
        assert!(guard.get(1).is_none());
        guard.insert(2, entry(), 64);
        drop(guard);
        assert!(!store.is_poisoned(), "recovery clears the poison");
        assert!(lock_store(&store).get(2).is_some(), "the recovered store caches again");
    }

    #[test]
    fn baseline_run_produces_sane_report() {
        let r = quick(SystemConfig::ddr_baseline(), "stream-copy");
        assert!(r.ipc > 0.01 && r.ipc < 4.0, "ipc = {}", r.ipc);
        assert!(r.mpki > 1.0, "stream must miss: mpki = {}", r.mpki);
        assert!(r.utilization > 0.05, "utilization = {}", r.utilization);
        assert!(r.read_gbs > 0.0 && r.write_gbs > 0.0);
        let (on, q, s, cxl) = r.breakdown_ns;
        assert!(on >= 0.0 && q >= 0.0 && s > 0.0);
        assert_eq!(cxl, 0.0, "no CXL component on the DDR baseline");
    }

    #[test]
    fn coaxial_reports_cxl_latency_component() {
        let r = quick(SystemConfig::coaxial_4x(), "stream-copy");
        let (_, _, _, cxl) = r.breakdown_ns;
        assert!(cxl > 30.0, "CXL component should be ≈50 ns, got {cxl}");
    }

    #[test]
    fn bandwidth_bound_workload_gains_on_coaxial() {
        let base = quick(SystemConfig::ddr_baseline(), "stream-copy");
        let coax = quick(SystemConfig::coaxial_4x(), "stream-copy");
        let speedup = coax.speedup_over(&base);
        assert!(speedup > 1.2, "stream-copy speedup = {speedup:.2}");
    }

    #[test]
    fn utilization_drops_on_coaxial_for_saturating_workload() {
        let base = quick(SystemConfig::ddr_baseline(), "stream-add");
        let coax = quick(SystemConfig::coaxial_4x(), "stream-add");
        assert!(
            coax.utilization < base.utilization,
            "relative utilization must drop: {} vs {}",
            coax.utilization,
            base.utilization
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = quick(SystemConfig::coaxial_4x(), "mcf");
        let b = quick(SystemConfig::coaxial_4x(), "mcf");
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.hier.l2_misses, b.hier.l2_misses);
    }

    #[test]
    fn single_active_core_runs() {
        let cfg = SystemConfig::ddr_baseline().with_active_cores(1);
        let w = Workload::by_name("gcc").unwrap();
        let r = Simulation::new(cfg, w).instructions_per_core(3_000).warmup(500).run();
        assert_eq!(r.per_core_ipc.len(), 1);
        assert!(r.ipc > 0.0);
    }

    #[test]
    fn pressure_counters_are_live_in_the_metrics_registry() {
        // The OoO/CXL pressure counters (ROADMAP telemetry item) must
        // actually accumulate on a memory-bound CXL run, not just exist:
        // a full ROB drives occupancy, blocked retirement drives issue
        // stalls, and in-flight CXL requests hold device-buffer credits.
        let w = Workload::by_name("mcf").expect("workload exists");
        let (_, _, m) = Simulation::new(SystemConfig::coaxial_4x(), w)
            .instructions_per_core(4_000)
            .warmup(1_000)
            .run_with_telemetry(NullTelemetry);
        let counter = |path: &str| match m.get(path) {
            Some(MetricValue::Counter(c)) => *c,
            other => panic!("{path}: expected a counter, got {other:?}"),
        };
        assert!(counter("cpu.core0.rob_occupancy_cum") > 0);
        assert!(counter("cpu.core0.issue_stall_cycles") > 0);
        match m.get("cxl.port.credit_occupancy") {
            Some(MetricValue::Gauge(g)) => {
                assert!(*g > 0.0, "credit occupancy gauge = {g}");
            }
            other => panic!("credit_occupancy: expected a gauge, got {other:?}"),
        }
    }

    #[test]
    fn mix_runs_with_heterogeneous_workloads() {
        let mix = coaxial_workloads::mixes::mix(0, 12);
        let cfg = SystemConfig::ddr_baseline();
        let r = Simulation::new_mix(cfg, &mix).instructions_per_core(2_000).warmup(500).run();
        assert_eq!(r.workload_names.len(), 12);
        assert!(r.ipc > 0.0);
    }

    #[test]
    fn cycle_skipping_is_bit_identical() {
        // Skipping on (default engine) against the no-skip lockstep oracle:
        // the whole report and the whole registry but the host-side
        // `server.*` and the `engine.*` skip counters. Latency-bound
        // workloads have frequent full-stall spans, so skipping engages;
        // on a bandwidth-bound one it rarely does and must still be exact.
        // The DDR mcf 6000/1500 and COAXIAL-4x mcf runs catch enqueue
        // stamps taken from a backend's last ticked cycle, which lags the
        // request's own cycle after a skipped span.
        for (cfg, wl, instr, warmup) in [
            (SystemConfig::ddr_baseline(), "mcf", 4_000, 1_000),
            (SystemConfig::ddr_baseline(), "mcf", 6_000, 1_500),
            (SystemConfig::coaxial_4x(), "mcf", 4_000, 1_000),
            (SystemConfig::coaxial_4x(), "raytrace", 4_000, 1_000),
            (SystemConfig::coaxial_4x(), "stream-copy", 4_000, 1_000),
        ] {
            let run = |skip: bool, kind: EngineKind| {
                let w = Workload::by_name(wl).expect("workload exists");
                let (report, _, metrics) = Simulation::new(cfg.clone(), w)
                    .instructions_per_core(instr)
                    .warmup(warmup)
                    .cycle_skip(skip)
                    .engine(kind)
                    .run_with_telemetry(NullTelemetry);
                let metrics: Vec<String> = metrics
                    .iter()
                    .filter(|(path, _)| {
                        !path.starts_with("server.") && !path.starts_with("engine.")
                    })
                    .map(|(path, v)| format!("{path} = {v:?}"))
                    .collect();
                (format!("{report:?}"), metrics)
            };
            let label = format!("{wl} on {} ({instr}/{warmup})", cfg.name);
            let (fast_report, fast_metrics) = run(true, EngineKind::Event);
            let (slow_report, slow_metrics) = run(false, EngineKind::Lockstep);
            assert_eq!(fast_report, slow_report, "{label}: report");
            assert_eq!(fast_metrics, slow_metrics, "{label}: registry");
        }
    }

    #[test]
    fn skip_from_cycle_zero_is_exact_in_both_engines() {
        // Regression test for the skip-probe underflow: with no warmup the
        // very first skip attempt can fire while `now` is still small, and
        // the hierarchy probe's `now - 1` horizon argument used to underflow
        // in debug builds (now saturating, see `engine::run_lockstep`).
        // raytrace is latency-bound, so skip spans appear immediately.
        let run = |kind: EngineKind, skip: bool| {
            let w = Workload::by_name("raytrace").expect("workload exists");
            Simulation::new(SystemConfig::coaxial_4x(), w)
                .instructions_per_core(3_000)
                .warmup(0)
                .cycle_skip(skip)
                .engine(kind)
                .run()
        };
        let oracle = run(EngineKind::Lockstep, false);
        for kind in [EngineKind::Lockstep, EngineKind::Event] {
            let fast = run(kind, true);
            assert_eq!(fast.cycles, oracle.cycles, "{}: cycle count", kind.name());
            assert_eq!(fast.ipc, oracle.ipc, "{}: IPC", kind.name());
            assert_eq!(fast.per_core_ipc, oracle.per_core_ipc, "{}: per-core IPC", kind.name());
            assert_eq!(fast.ddr.reads, oracle.ddr.reads, "{}: ddr reads", kind.name());
            assert_eq!(fast.ddr.writes, oracle.ddr.writes, "{}: ddr writes", kind.name());
            assert_eq!(fast.breakdown_ns, oracle.breakdown_ns, "{}: breakdown", kind.name());
        }
    }

    #[test]
    fn calm_serial_override_disables_calm_traffic() {
        let cfg = SystemConfig::coaxial_4x().with_calm(CalmPolicy::Serial);
        let r = quick(cfg, "bwaves");
        assert_eq!(r.calm.true_pos + r.calm.false_pos, 0, "serial never CALMs");
        assert_eq!(r.hier.wasted_mem_reads, 0);
    }
}
