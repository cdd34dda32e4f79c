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

use coaxial_cache::{CalmStats, HierStats, Hierarchy, HierarchyConfig, PrefillState};
use coaxial_cpu::{Core, CoreParams, FileTrace, TraceOp, TraceSource};
use coaxial_cxl::CxlMemory;
use coaxial_dram::{ChannelStats, MemoryBackend, MultiChannel};
use coaxial_sim::checkpoint::codec;
use coaxial_sim::{CheckpointStore, Cycle, KeyHasher, Snapshot};
use coaxial_telemetry::{MetricsRegistry, NullTelemetry, TelemetrySink};
use coaxial_workloads::Workload;

use crate::config::{FunctionalConfig, MemorySystemKind, SystemConfig};
use crate::engine::{self, EngineKind, RunParams};

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

/// Content-addressed store of warmed post-prefill machine state, keyed by
/// [`prefill_state_key`] — a canonical hash of the *functional* config
/// slice. Every timing-only sibling of a run (CXL latency, DRAM grade, CALM
/// policy, prefetch distance — anything in `TimingConfig`) restores the
/// same snapshot instead of re-simulating prefill; lint E03 enforces that
/// the prefill call graph cannot read timing fields, which is what makes
/// the key sound. The memory tier is bounded by `COAXIAL_PREFILL_CACHE_MB`;
/// `COAXIAL_CHECKPOINT_DIR` adds a disk tier that survives process
/// restarts. Counters surface as `server.checkpoint.state.*` via
/// [`checkpoint_metrics`].
static PREFILL_STATE: LazyLock<Mutex<CheckpointStore<PrefillState>>> = LazyLock::new(|| {
    Mutex::new(CheckpointStore::new(
        prefill_cache_budget(),
        coaxial_sim::env::checkpoint_dir(),
        "prefill-state",
    ))
});

/// Store of generated prefill *access streams* plus generator cursors, keyed
/// by [`prefill_stream_key`] — strictly less than the state key: the stream
/// is a property of the workloads and seed alone, so two geometries that
/// cannot share warmed state (baseline vs. COAXIAL, which trades LLC slices
/// for CXL controllers) still replay the same generated accesses. Memory
/// tier only: streams regenerate in milliseconds from parked cursors, so a
/// disk tier would spend I/O to save nothing. Counters surface as
/// `server.checkpoint.streams.*`.
static PREFILL_STREAMS: LazyLock<Mutex<CheckpointStore<StreamCheckpoint>>> = LazyLock::new(|| {
    Mutex::new(CheckpointStore::new(prefill_cache_budget(), None, "prefill-streams"))
});

/// Lock one of the process-wide checkpoint stores. A job that panicked
/// while holding the lock poisoned it; the store is a cache, so recovery
/// empties its memory tier and clears the poison instead of failing every
/// later run of a long-lived `coaxial serve`. The disk tier is published
/// by atomic rename, so it cannot hold a torn entry and stays.
fn lock_store<V: Snapshot>(
    store: &Mutex<CheckpointStore<V>>,
) -> MutexGuard<'_, CheckpointStore<V>> {
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
const PREFILL_BUDGET_CLIFF_MB: u64 = 128;

static BUDGET_WARNING: Once = Once::new();

/// Shared byte budget for each checkpoint store's memory tier. Warns once
/// per process when the knob is past the measured performance cliff.
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

/// Per-core prefill access streams plus the paused generators' cursor
/// snapshots ([`TraceSource::save_state`]), captured after producing
/// exactly `streams[i].len()` accesses. A sibling run replays the streams
/// zero-copy and, if it needs more, rebuilds the generator and resumes it
/// from the cursor instead of regenerating from the start.
struct StreamCheckpoint {
    streams: Vec<Vec<(u64, bool)>>,
    cursors: Vec<Option<Vec<u64>>>,
}

impl StreamCheckpoint {
    /// Approximate heap footprint for LRU accounting (streams dominate).
    fn approx_bytes(&self) -> u64 {
        let streams: usize =
            self.streams.iter().map(|s| s.capacity() * std::mem::size_of::<(u64, bool)>()).sum();
        let cursors: usize = self.cursors.iter().flatten().map(|c| c.len() * 8 + 64).sum();
        (streams + cursors) as u64
    }
}

/// Codec: line addresses fit 63 bits, so each access packs into one word
/// (`line << 1 | is_store`). The store is currently memory-only, but the
/// impl keeps the disk-tier option open and documents the canonical shape.
impl Snapshot for StreamCheckpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        codec::put_u64(out, self.streams.len() as u64);
        for s in &self.streams {
            codec::put_u64(out, s.len() as u64);
            for &(line, is_store) in s {
                codec::put_u64(out, line << 1 | u64::from(is_store));
            }
        }
        for c in &self.cursors {
            match c {
                Some(words) => {
                    codec::put_u64(out, 1);
                    codec::put_u64s(out, words);
                }
                None => codec::put_u64(out, 0),
            }
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = codec::Reader::new(bytes);
        let n = usize::try_from(r.u64()?).ok()?;
        if n > 4096 {
            return None;
        }
        let streams = (0..n)
            .map(|_| {
                let words = r.u64s()?;
                Some(words.iter().map(|&w| (w >> 1, w & 1 != 0)).collect())
            })
            .collect::<Option<Vec<Vec<(u64, bool)>>>>()?;
        let cursors = (0..n)
            .map(|_| match r.u64()? {
                0 => Some(None),
                1 => Some(Some(r.u64s()?)),
                _ => None,
            })
            .collect::<Option<Vec<Option<Vec<u64>>>>>()?;
        r.done().then_some(Self { streams, cursors })
    }
}

/// One core's view of a prefill stream during replay: a zero-copy prefix
/// borrowed from the parked [`StreamCheckpoint`] (the common sibling-run
/// case reads it untouched), a locally generated extension, and the
/// generator that produces the extension — rebuilt lazily from the parked
/// cursor, or by fast-forwarding when the cursor cannot be restored.
struct CoreStream<'a> {
    base: &'a [(u64, bool)],
    /// Generator cursor valid at the end of `base`.
    cursor: Option<&'a [u64]>,
    ext: Vec<(u64, bool)>,
    gen: Option<Box<dyn TraceSource + Send>>,
}

impl CoreStream<'_> {
    fn len(&self) -> usize {
        self.base.len() + self.ext.len()
    }

    /// Access `j`, defined for `j < self.len()`.
    fn at(&self, j: usize) -> (u64, bool) {
        if j < self.base.len() {
            self.base[j]
        } else {
            self.ext[j - self.base.len()]
        }
    }

    /// Extend the stream to at least `len` accesses. `make_gen` constructs
    /// the core's generator from scratch; it is invoked at most once, and
    /// only when the parked prefix runs out.
    fn ensure(&mut self, len: usize, make_gen: impl FnOnce() -> Box<dyn TraceSource + Send>) {
        if self.len() >= len {
            return;
        }
        if self.gen.is_none() {
            let mut g = make_gen();
            let resumed = self.cursor.is_some_and(|c| g.restore_state(c));
            if !resumed {
                // No (or unusable) cursor: fast-forward through the prefix
                // we already hold. Generators are deterministic, so the
                // re-run generator is call-for-call equivalent.
                for _ in 0..self.len() {
                    let _ = g.next_access();
                }
            }
            self.gen = Some(g);
        }
        let have = self.len();
        let g = self.gen.as_mut().expect("generator just installed");
        self.ext.extend((have..len).map(|_| g.next_access()));
    }
}

/// Canonical content address of a warmed prefill state: every functional
/// field plus the per-core workload names. Timing fields are deliberately
/// absent — that is the whole point of the store (and lint E03's job).
fn prefill_state_key(names: &[String], func: &FunctionalConfig) -> u128 {
    let mut h = KeyHasher::new("coaxial/prefill-state/v1");
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

/// Content address of the prefill access streams: workloads, seed, and the
/// active-core count (which fixes how many streams exist) — but *not* the
/// cache geometry, so baseline and COAXIAL twins share one entry.
fn prefill_stream_key(names: &[String], func: &FunctionalConfig) -> u128 {
    let mut h = KeyHasher::new("coaxial/prefill-streams/v1");
    h.write_u64(names.len() as u64);
    for n in names {
        h.write_str(n);
    }
    h.write_u64(func.seed);
    h.write_u64(func.active_cores as u64);
    h.finish()
}

/// Export both checkpoint stores' counters into `reg` under
/// `server.checkpoint.*`. The counters are process-wide (the stores are
/// shared across runs and threads), so sweep reports see the cumulative
/// numbers.
pub fn checkpoint_metrics(reg: &mut MetricsRegistry) {
    let mut export = |name: &str, c: coaxial_sim::CheckpointCounters| {
        reg.set_counter(&format!("server.checkpoint.{name}.mem_hits"), c.mem_hits);
        reg.set_counter(&format!("server.checkpoint.{name}.disk_hits"), c.disk_hits);
        reg.set_counter(&format!("server.checkpoint.{name}.misses"), c.misses);
        reg.set_counter(&format!("server.checkpoint.{name}.inserts"), c.inserts);
        reg.set_counter(&format!("server.checkpoint.{name}.evictions"), c.evictions);
        reg.set_counter(&format!("server.checkpoint.{name}.disk_errors"), c.disk_errors);
        reg.set_gauge(&format!("server.checkpoint.{name}.entries"), c.entries as f64);
        reg.set_gauge(&format!("server.checkpoint.{name}.bytes"), c.bytes as f64);
    };
    export("state", lock_store(&PREFILL_STATE).counters());
    export("streams", lock_store(&PREFILL_STREAMS).counters());
    let over = coaxial_sim::env::prefill_cache_mb() > PREFILL_BUDGET_CLIFF_MB;
    reg.set_gauge("server.checkpoint.budget_over_cliff", f64::from(u8::from(over)));
}

/// Builder for one simulation run. Fields are `pub(crate)` so the sampling
/// driver (`crate::sampling`) can reuse the builder, the prefill path, and
/// the trace plumbing without widening the public API.
pub struct Simulation {
    pub(crate) config: SystemConfig,
    /// One workload per core (replicated for homogeneous runs).
    pub(crate) workloads: Vec<&'static Workload>,
    /// Replay a captured `.cxtr` trace on every core instead of a
    /// registry workload (see `coaxial_cpu::tracefile`): its path, for the
    /// report, and its ops, read once and shared by every core's cursor.
    pub(crate) trace_file: Option<(PathBuf, Arc<[TraceOp]>)>,
    pub(crate) instructions: u64,
    pub(crate) warmup: u64,
    pub(crate) max_cycles: Cycle,
    /// Hot-loop cycle skipping; `None` follows `COAXIAL_SKIP` (default on).
    pub(crate) cycle_skip: Option<bool>,
    /// Run-loop engine; `None` follows `COAXIAL_ENGINE` (default: event).
    pub(crate) engine: Option<EngineKind>,
}

impl Simulation {
    /// Homogeneous run: the same workload on every active core (§V).
    pub fn new(config: SystemConfig, workload: &'static Workload) -> Self {
        let workloads = vec![workload; config.functional.cores];
        Self::with_workloads(config, workloads)
    }

    /// Heterogeneous run (Fig. 6 mixes): one workload per core.
    pub fn new_mix(config: SystemConfig, mix: &[&'static Workload]) -> Self {
        match Self::try_new_mix(config, mix) {
            Ok(sim) => sim,
            Err(e) => panic!("mix must name one workload per core: {e}"),
        }
    }

    /// Fallible twin of [`Self::new_mix`]: a mix that does not name
    /// exactly one workload per core is a [`ConfigError`] instead of a
    /// panic, so service front-ends can answer HTTP 400.
    pub fn try_new_mix(
        config: SystemConfig,
        mix: &[&'static Workload],
    ) -> Result<Self, crate::config::ConfigError> {
        if mix.len() != config.functional.cores {
            return Err(crate::config::ConfigError::WorkloadMixLength {
                got: mix.len(),
                want: config.functional.cores,
            });
        }
        Ok(Self::with_workloads(config, mix.to_vec()))
    }

    fn with_workloads(config: SystemConfig, workloads: Vec<&'static Workload>) -> Self {
        let instructions = coaxial_sim::env::instructions(DEFAULT_INSTRUCTIONS);
        let warmup = coaxial_sim::env::warmup(DEFAULT_WARMUP);
        Self {
            config,
            workloads,
            trace_file: None,
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
        let mut s = Self::with_workloads(config, Vec::new());
        s.trace_file = Some((path, ops));
        Ok(s)
    }

    /// Build the trace stream for core `i` (registry workload or file).
    pub(crate) fn trace_for(&self, i: usize, seed: u64) -> Box<dyn TraceSource + Send> {
        match &self.trace_file {
            Some((_, ops)) => Box::new(FileTrace::shared(Arc::clone(ops))),
            None => self.workloads[i].trace(coaxial_sim::small_u32(i), seed),
        }
    }

    pub(crate) fn workload_names(&self) -> Vec<String> {
        match &self.trace_file {
            Some((path, _)) => vec![path.display().to_string()],
            None => self.workloads.iter().map(|w| w.name.to_string()).collect(),
        }
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
        match &self.config.timing.memory {
            MemorySystemKind::DirectDdr { channels } => {
                let backend = MultiChannel::new(&self.config.timing.dram, *channels);
                self.run_with(backend)
            }
            MemorySystemKind::Cxl { link, channels } => {
                let backend = CxlMemory::new(link, &self.config.timing.dram, *channels);
                self.run_with(backend)
            }
        }
    }

    /// Run with a telemetry sink attached. Returns the (unchanged)
    /// [`RunReport`], the sink carrying whatever it recorded, and a
    /// [`MetricsRegistry`] snapshot of hierarchy, backend, and prefill-cache
    /// metrics. `run()` is exactly `run_with_telemetry(NullTelemetry).0`
    /// minus the registry harvest, so figure/table outputs are byte-identical
    /// whether or not telemetry is attached.
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

    fn run_with<B: MemoryBackend>(self, backend: B) -> RunReport {
        self.run_with_sink(backend, NullTelemetry).0
    }

    /// Functional cache prefill: stand-in for the paper's 50 M-instruction
    /// warmup. Each active core streams its own access pattern through the
    /// arrays until the LLC is effectively full (or the working set is
    /// exhausted), so the measured window starts at dirty steady state —
    /// evictions, and therefore memory write traffic, flow from the first
    /// cycle. Returns whether a checkpoint restore replaced the replay.
    ///
    /// Entry point of lint E03's call graph: nothing reachable from here may
    /// read a `TimingConfig` field, because the warmed state is keyed by the
    /// functional slice alone and shared across all timing siblings.
    pub(crate) fn prefill_hierarchy<B: MemoryBackend, T: TelemetrySink>(
        &self,
        hierarchy: &mut Hierarchy<B, T>,
    ) -> bool {
        // Registry workloads are deterministic, so the warmed state is fully
        // determined by the content address; a hit replaces the whole
        // prefill with an array copy (or a disk decode). Trace-file runs
        // bypass the store (a path name does not pin the file's contents).
        let names = self.workload_names();
        let func = &self.config.functional;
        let state_key = self.trace_file.is_none().then(|| prefill_state_key(&names, func));
        if let Some(key) = state_key {
            // Its own statement, so the store's guard drops before the
            // import (an `if let` scrutinee's guard would live through it).
            let restored = lock_store(&PREFILL_STATE).get(key);
            // A state that does not fit this geometry (a disk checkpoint
            // from another build) falls back to the cold replay.
            if restored.is_some_and(|state| hierarchy.import_prefill_state(&state)) {
                return true;
            }
        }
        self.prefill_replay(hierarchy, &names, state_key);
        false
    }

    /// The cold half of [`Simulation::prefill_hierarchy`]: replay the access
    /// streams through the arrays, then checkpoint the warmed state.
    fn prefill_replay<B: MemoryBackend, T: TelemetrySink>(
        &self,
        hierarchy: &mut Hierarchy<B, T>,
        names: &[String],
        state_key: Option<u128>,
    ) {
        let func = &self.config.functional;
        let llc_lines_total =
            coaxial_sim::trunc_usize(func.llc_mb_per_core * 1024.0 * 1024.0 / 64.0) * func.cores;
        let round_ops = (llc_lines_total / func.active_cores.max(1)).max(4096);
        // The access streams depend on the workloads and seed but not the
        // geometry, so replay a same-workload sibling's parked streams
        // zero-copy and resume its generators from their cursors for any
        // tail this geometry needs beyond the parked prefix.
        let stream_key = self.trace_file.is_none().then(|| prefill_stream_key(names, func));
        let parked: Option<Arc<StreamCheckpoint>> =
            stream_key.and_then(|k| lock_store(&PREFILL_STREAMS).get(k));
        let mut streams: Vec<CoreStream<'_>> = (0..func.active_cores)
            .map(|i| CoreStream {
                base: parked.as_ref().and_then(|p| p.streams.get(i)).map_or(&[], Vec::as_slice),
                cursor: parked.as_ref().and_then(|p| p.cursors.get(i)).and_then(|c| c.as_deref()),
                ext: Vec::new(),
                gen: None,
            })
            .collect();
        // The prefill streams multiples of the LLC capacity through arrays
        // far larger than the host's caches, so each probe is a host memory
        // miss. Walking a pre-generated round and prefetching the tag sets
        // a few accesses ahead overlaps those misses; the prefill_access
        // call sequence — and therefore the warmed state — is unchanged.
        const PREFETCH_AHEAD: usize = 8;
        let mut consumed = 0usize;
        for _round in 0..8 {
            let limit = consumed + round_ops;
            for (i, s) in streams.iter_mut().enumerate() {
                // next_access advances the generator exactly like next_op
                // but skips the gap math the prefill discards.
                s.ensure(limit, || self.trace_for(i, func.seed ^ 0xF111));
                for j in consumed..limit {
                    // Lookahead stops at the round boundary, exactly like
                    // the slice `get` it replaces, so a parked stream longer
                    // than this geometry's round cannot change the state.
                    if j + PREFETCH_AHEAD < limit {
                        let (ahead, _) = s.at(j + PREFETCH_AHEAD);
                        hierarchy.prefill_prefetch(coaxial_sim::small_u32(i), ahead);
                    }
                    let (line, is_store) = s.at(j);
                    hierarchy.prefill_access(coaxial_sim::small_u32(i), line, is_store);
                }
            }
            consumed = limit;
            let [_, _, (llc_valid, _)] = hierarchy.occupancy();
            if llc_valid >= llc_lines_total * 9 / 10 {
                break;
            }
        }
        if let Some(key) = stream_key {
            // Re-park only when this run grew the streams (or none were
            // parked): the common sibling case read the Arc'd prefix
            // untouched and has nothing new to contribute.
            let extended = streams.iter().any(|s| !s.ext.is_empty());
            if extended || parked.is_none() {
                let merged = StreamCheckpoint {
                    streams: streams
                        .iter()
                        .map(|s| {
                            let mut v = Vec::with_capacity(s.len());
                            v.extend_from_slice(s.base);
                            v.extend_from_slice(&s.ext);
                            v
                        })
                        .collect(),
                    cursors: streams
                        .iter()
                        .map(|s| match &s.gen {
                            Some(g) => g.save_state(),
                            None => s.cursor.map(<[u64]>::to_vec),
                        })
                        .collect(),
                };
                let bytes = merged.approx_bytes();
                lock_store(&PREFILL_STREAMS).insert(key, Arc::new(merged), bytes);
            }
        }
        if let Some(key) = state_key {
            let state = Arc::new(hierarchy.export_prefill_state());
            let bytes = state.approx_bytes();
            lock_store(&PREFILL_STATE).insert(key, state, bytes);
        }
    }

    fn run_with_sink<B: MemoryBackend, T: TelemetrySink>(
        self,
        backend: B,
        tel: T,
    ) -> (RunReport, T, MetricsRegistry) {
        let cfg = &self.config;
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
        let mut hierarchy = Hierarchy::with_telemetry(hier_cfg, backend, tel);

        #[expect(
            clippy::disallowed_types,
            reason = "host-side prefill/loop wall time for the COAXIAL_DEBUG diagnostic and the \
                      server.prefill.wall_ns/loop_wall_ns registry metrics; it feeds wall-time \
                      reporting only (excluded from the differential tests) and never touches \
                      simulated state or figure output"
        )]
        let dbg_t0 = std::time::Instant::now();
        let restored = self.prefill_hierarchy(&mut hierarchy);
        hierarchy.finish_prefill();
        let dbg_prefill = dbg_t0.elapsed();

        let mut cores: Vec<Core> = (0..func.active_cores)
            .map(|i| {
                Core::new(
                    coaxial_sim::small_u32(i),
                    CoreParams::default(),
                    self.trace_for(i, func.seed),
                )
            })
            .collect();

        let max_cycles = if self.max_cycles > 0 {
            self.max_cycles
        } else {
            // Generous cap: even at IPC 0.01 the budget fits.
            (self.warmup + self.instructions) * 120
        };

        let skip = self.cycle_skip.unwrap_or_else(coaxial_sim::env::cycle_skip);
        let kind = self.engine.unwrap_or_else(EngineKind::from_env);

        let params =
            RunParams { warmup: self.warmup, instructions: self.instructions, max_cycles, skip };
        let outcome = match kind {
            EngineKind::Event => engine::run_event(&params, &mut cores, &mut hierarchy),
            EngineKind::Lockstep => engine::run_lockstep(&params, &mut cores, &mut hierarchy),
        };
        let now = outcome.now;
        let finish_ipc = outcome.finish_ipc;
        if coaxial_sim::env::debug() {
            eprintln!(
                "engine-debug: engine={} now={now} skipped={} ({:.1}%) blocked_iters={} prefill={:.3}s (restored={restored}) loop={:.3}s",
                kind.name(),
                outcome.stats.skipped_cycles,
                100.0 * outcome.stats.skipped_cycles as f64 / now.max(1) as f64,
                outcome.stats.blocked_iters,
                dbg_prefill.as_secs_f64(),
                dbg_t0.elapsed().as_secs_f64() - dbg_prefill.as_secs_f64()
            );
        }

        let per_core_ipc: Vec<f64> = cores
            .iter()
            .enumerate()
            .map(|(i, c)| finish_ipc[i].unwrap_or_else(|| c.ipc()))
            .collect();
        let ipc = per_core_ipc.iter().sum::<f64>() / per_core_ipc.len() as f64;

        let hier = hierarchy.stats();
        let ddr = hierarchy.backend().ddr_stats();
        let total_instr: u64 = cores.iter().map(|c| c.retired.min(self.instructions)).sum();
        let mpki = if total_instr == 0 {
            0.0
        } else {
            hier.llc_misses as f64 * 1000.0 / total_instr as f64
        };
        let breakdown_ns = hier.breakdown_ns();
        let window_ns = coaxial_sim::cycles_to_ns(ddr.elapsed_cycles);
        let (read_gbs, write_gbs) = if window_ns > 0.0 {
            (ddr.read_bytes as f64 / window_ns, ddr.write_bytes as f64 / window_ns)
        } else {
            (0.0, 0.0)
        };
        let peak = cfg.peak_bandwidth_gbs();
        let report = RunReport {
            config_name: cfg.name.clone(),
            workload_names: self.workload_names(),
            ipc,
            per_core_ipc,
            mpki,
            breakdown_ns,
            l2_miss_latency_ns: coaxial_sim::cycles_f64_to_ns(hier.mean_l2_miss_latency_cycles()),
            read_gbs,
            write_gbs,
            utilization: (read_gbs + write_gbs) / peak,
            bandwidth_gbs: read_gbs + write_gbs,
            llc_miss_ratio: hier.llc_miss_ratio(),
            cxl_link_utilization: hierarchy.backend().link_utilization(),
            calm: hier.calm,
            hier,
            ddr,
            cycles: now,
            instructions: self.instructions,
        };
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
        let ns = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        metrics.set_counter("server.prefill.wall_ns", ns(dbg_prefill));
        metrics.set_counter(
            "server.prefill.loop_wall_ns",
            ns(dbg_t0.elapsed().saturating_sub(dbg_prefill)),
        );
        metrics.set_counter("server.prefill.restored", u64::from(restored));
        checkpoint_metrics(&mut metrics);
        (report, hierarchy.into_telemetry(), metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coaxial_cache::CalmPolicy;
    use coaxial_telemetry::MetricValue;

    fn quick(config: SystemConfig, wl: &str) -> RunReport {
        let w = Workload::by_name(wl).expect("workload exists");
        Simulation::new(config, w).instructions_per_core(4_000).warmup(1_000).run()
    }

    /// Seeded corruptions of an encoded stream checkpoint: decoding never
    /// panics and never yields more stream words than the bytes hold.
    #[test]
    fn seeded_fuzz_of_stream_checkpoint_decode() {
        let streams = vec![(0..50).map(|i| (i * 64, i % 3 == 0)).collect(), vec![(8, true)]];
        let mut raw = Vec::new();
        StreamCheckpoint { streams, cursors: vec![Some(vec![1, 2, 3]), None] }.encode(&mut raw);
        let mut rng = coaxial_sim::SplitMix64::new(0x5753);
        let mut decoded = 0;
        for _ in 0..400 {
            let bad = rng.corrupt(&raw);
            let Some(cp) = StreamCheckpoint::decode(&bad) else { continue };
            let words: usize = cp.streams.iter().map(Vec::len).sum::<usize>()
                + cp.cursors.iter().flatten().map(Vec::len).sum::<usize>();
            assert!(words * 8 <= bad.len(), "decoded more words than the bytes hold");
            decoded += 1;
        }
        assert!(decoded > 0, "the fuzzer must reach a successful decode");
    }

    #[test]
    fn poisoned_checkpoint_store_recovers_as_an_empty_cache() {
        // A local store: poisoning a process-wide one would fail the tests
        // that run beside this one.
        let store = Mutex::new(CheckpointStore::new(1 << 20, None, "poison-test"));
        let entry =
            || Arc::new(StreamCheckpoint { streams: vec![vec![(64, false)]], cursors: vec![None] });
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
