//! Per-layer host-time profile of one full-detail run, timed from this
//! crate around calls into each layer's public functions.
//!
//! [`replicate`] assembles the run from the same public parts the
//! production `Simulation::run` uses — `HierarchyConfig::table_iii` plus
//! the config overrides, `Hierarchy::new`, `Core::new` over
//! `Workload::trace`, and a cold prefill through `prefill_access` — and
//! runs it twice from the same prefill state: once through the production
//! lockstep engine (`coaxial_system::engine::run_lockstep`), untimed inside,
//! and once through [`drive`], a copy of that loop with every layer call
//! wrapped in a span and the backend wrapped in [`Timed`]. The lockstep
//! loop visits exactly the event engine's cycles
//! (`crates/system/tests/engine_differential.rs`).
//!
//! The hierarchy seed, the prefill replay and [`drive`] mirror private
//! details of `Simulation` and `engine` that no public function exposes.
//! Both runs must reproduce the production report exactly, so when those
//! details change the traced run fails (`correct` false) rather than
//! profiling a different machine; `src/profile.rs` then needs the same
//! change.
//!
//! Clock reads are amortised: only every [`STRIDE`]th visited cycle reads
//! the clock, around the cycle and around every span inside it. Counts are
//! exact on every cycle. Self time is computed on the fly with a span
//! stack — a span's duration minus its children's. [`SpanSums::corrected`]
//! then removes the cost of the clock reads themselves, so a layer made of
//! many short calls is not billed for being measured.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use coaxial_cache::{Hierarchy, HierarchyConfig, PrefillState};
use coaxial_cpu::{Core, CoreParams, TraceSource};
use coaxial_cxl::CxlMemory;
use coaxial_dram::{ChannelStats, MemRequest, MemResponse, MemoryBackend, MultiChannel};
use coaxial_sim::{Cycle, Snapshot};
use coaxial_system::engine::{run_lockstep, EngineStats, RunOutcome, RunParams};
use coaxial_system::{MemorySystemKind, RunReport, RunSpec};
use coaxial_telemetry::{EventTracer, MetricsRegistry, TraceEvent};

/// A timed layer. `Residual` is the loop body outside every layer span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Cpu,
    Cache,
    Dram,
    Cxl,
    Engine,
    Residual,
}

pub const LAYERS: usize = 6;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Cpu => "cpu",
            Layer::Cache => "cache",
            Layer::Dram => "dram",
            Layer::Cxl => "cxl",
            Layer::Engine => "engine",
            Layer::Residual => "residual",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Visited cycles per clock-reading cycle. Odd, so the sample cannot alias
/// with the model's power-of-two epochs (CALM, bandwidth counters).
pub const STRIDE: u64 = 17;

/// Spans kept for the Chrome-trace dump of one traced run.
const DUMP_CAP: usize = 4096;

struct Frame {
    layer: Layer,
    start: u64,
    child: u64,
    children: u64,
    seq: u64,
}

/// Raw span sums over the clock-reading cycles.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanSums {
    /// Self time per layer — span duration minus its child spans — with
    /// the clock reads still in it.
    pub self_ns: [f64; LAYERS],
    pub spans: [u64; LAYERS],
    /// Direct child spans of each layer's spans.
    pub children: [u64; LAYERS],
}

/// What an empty span adds to its own self time and to its parent's.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calibration {
    pub span_ns: f64,
    pub child_ns: f64,
}

impl SpanSums {
    pub fn add(&mut self, o: &SpanSums) {
        for i in 0..LAYERS {
            self.self_ns[i] += o.self_ns[i];
            self.spans[i] += o.spans[i];
            self.children[i] += o.children[i];
        }
    }

    /// The calibrated cost of measuring layer `i`: what each of its spans
    /// adds to its own self time, plus what their direct children add.
    fn cost(&self, cal: Calibration, i: usize) -> f64 {
        cal.span_ns * self.spans[i] as f64 + cal.child_ns * self.children[i] as f64
    }

    /// How many times the calibrated cost of every span the measured
    /// overhead is: the raw sum less `untraced_ns`, what the same cycles
    /// cost untraced. Above 1 where a clock read among loads that miss the
    /// host caches costs more than in the calibration loop.
    pub fn clock_scale(&self, cal: Calibration, untraced_ns: f64) -> f64 {
        let unit: f64 = (0..LAYERS).map(|i| self.cost(cal, i)).sum();
        let measured: f64 = self.self_ns.iter().sum();
        if unit > 0.0 {
            (measured - untraced_ns).max(0.0) / unit
        } else {
            0.0
        }
    }

    /// Per-layer self time with the cost of measuring removed, given what
    /// the same cycles cost untraced. The calibration fixes how the cost
    /// of a span splits between the span and its parent; the untraced cost
    /// fixes how much there is in all ([`SpanSums::clock_scale`]).
    pub fn corrected(&self, cal: Calibration, untraced_ns: f64) -> [f64; LAYERS] {
        let scale = self.clock_scale(cal, untraced_ns);
        std::array::from_fn(|i| self.self_ns[i] - scale * self.cost(cal, i))
    }
}

/// Span bookkeeping for the clock-reading cycles.
struct Recorder {
    epoch: Instant,
    stack: Vec<Frame>,
    sums: SpanSums,
    next_seq: u64,
    dump: Option<EventTracer>,
}

impl Recorder {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            stack: Vec::new(),
            sums: SpanSums::default(),
            next_seq: 1,
            dump: None,
        }
    }

    fn clock(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn enter(&mut self, layer: Layer) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let start = self.clock();
        self.stack.push(Frame { layer, start, child: 0, children: 0, seq });
    }

    fn exit(&mut self) {
        let end = self.clock();
        let f = self.stack.pop().expect("span exit without a matching enter");
        let dur = end.saturating_sub(f.start);
        let i = f.layer.idx();
        self.sums.self_ns[i] += dur.saturating_sub(f.child) as f64;
        self.sums.spans[i] += 1;
        self.sums.children[i] += f.children;
        let depth = self.stack.len();
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child += dur;
                p.children += 1;
                p.seq
            }
            None => 0,
        };
        if let Some(t) = self.dump.as_mut().filter(|t| t.len() < DUMP_CAP) {
            t.record(TraceEvent {
                name: f.layer.name(),
                cat: "host",
                pid: 1,
                tid: coaxial_sim::small_u32(depth),
                start: coaxial_sim::ns_to_cycles(f.start as f64),
                dur: coaxial_sim::ns_to_cycles(dur as f64),
                line: parent,
            });
        }
    }
}

thread_local! {
    static SAMPLING: Cell<bool> = const { Cell::new(false) };
    static CALLS: [Cell<u64>; LAYERS] = const { [const { Cell::new(0) }; LAYERS] };
    static REC: RefCell<Recorder> = RefCell::new(Recorder::new());
}

/// Run `f` as one `layer` span: always counted, timed on clock-reading
/// cycles only.
#[inline(always)]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    CALLS.with(|c| c[layer.idx()].set(c[layer.idx()].get() + 1));
    if !SAMPLING.with(Cell::get) {
        return f();
    }
    REC.with(|r| r.borrow_mut().enter(layer));
    let out = f();
    REC.with(|r| r.borrow_mut().exit());
    out
}

fn cycle_begin() {
    SAMPLING.with(|s| s.set(true));
    REC.with(|r| r.borrow_mut().enter(Layer::Residual));
}

fn cycle_end() {
    REC.with(|r| r.borrow_mut().exit());
    SAMPLING.with(|s| s.set(false));
}

/// Start counting and summing from zero; `dump` keeps the first spans.
fn reset(dump: bool) {
    CALLS.with(|c| c.iter().for_each(|x| x.set(0)));
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.sums = SpanSums::default();
        r.dump = dump.then(|| EventTracer::new(DUMP_CAP));
    });
}

/// Measure what an empty span adds to its own and to its parent's self
/// time (median of repeats).
pub fn calibrate() -> Calibration {
    const SPANS: u64 = 20_000;
    let mut own = Vec::new();
    let mut parent = Vec::new();
    for _ in 0..9 {
        reset(false);
        cycle_begin();
        for _ in 0..SPANS {
            span(Layer::Cpu, || std::hint::black_box(()));
        }
        cycle_end();
        let sums = REC.with(|r| r.borrow().sums);
        own.push(sums.self_ns[Layer::Cpu.idx()] / SPANS as f64);
        parent.push(sums.self_ns[Layer::Residual.idx()] / SPANS as f64);
    }
    Calibration { span_ns: crate::stats::median(&own), child_ns: crate::stats::median(&parent) }
}

/// A memory backend whose every hot-path call is one `layer` span.
struct Timed<B> {
    inner: B,
    layer: Layer,
}

impl<B: MemoryBackend> MemoryBackend for Timed<B> {
    fn try_enqueue(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        let inner = &mut self.inner;
        span(self.layer, || inner.try_enqueue(req))
    }
    fn tick(&mut self, now: Cycle) {
        let inner = &mut self.inner;
        span(self.layer, || inner.tick(now));
    }
    fn pop_response(&mut self, now: Cycle) -> Option<MemResponse> {
        let inner = &mut self.inner;
        span(self.layer, || inner.pop_response(now))
    }
    fn next_event(&self, now: Cycle) -> Cycle {
        span(self.layer, || self.inner.next_event(now))
    }
    fn ddr_channel_count(&self) -> usize {
        self.inner.ddr_channel_count()
    }
    fn ddr_stats(&self) -> ChannelStats {
        self.inner.ddr_stats()
    }
    fn reset_stats(&mut self, now: Cycle) {
        self.inner.reset_stats(now);
    }
    fn peak_bandwidth_gbs(&self) -> f64 {
        self.inner.peak_bandwidth_gbs()
    }
    fn link_utilization(&self) -> Option<(f64, f64)> {
        self.inner.link_utilization()
    }
    fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        self.inner.export_metrics(reg, prefix);
    }
}

/// What one replicated spec measured.
#[derive(Debug, Clone, Default)]
pub struct SpecProfile {
    /// Span sums over the clock-reading cycles.
    pub sampled: SpanSums,
    /// Span calls per [`Layer`] over the whole traced loop.
    pub calls: [u64; LAYERS],
    pub traced_loop_ns: f64,
    pub untraced_loop_ns: f64,
    pub cores: u64,
    pub visited_cycles: u64,
    pub skipped_cycles: u64,
    pub final_cycles: u64,
    /// Prefill replay: generator time, `prefill_access` time, accesses.
    pub gen_ns: f64,
    pub prefill_ns: f64,
    pub accesses: u64,
    pub export_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub import_ns: f64,
    pub state_bytes: u64,
    /// The traced loop and the production engine, both run from the
    /// replica's prefill state, reproduced the production report.
    pub matches: bool,
    /// Spans of the first clock-reading cycles, when a dump was asked for.
    pub dump: Option<EventTracer>,
}

impl SpecProfile {
    /// What the clock-reading cycles cost in the untraced loop.
    pub fn untraced_sampled_ns(&self) -> f64 {
        let sampled = self.sampled.spans[Layer::Residual.idx()];
        self.untraced_loop_ns * sampled as f64 / self.visited_cycles.max(1) as f64
    }
}

/// Where a loop ended and what it measured, for the equivalence check.
struct LoopOutcome {
    now: Cycle,
    per_core_ipc: Vec<f64>,
    skipped_cycles: u64,
}

impl LoopOutcome {
    fn new(o: &RunOutcome, cores: &[Core]) -> Self {
        let per_core_ipc =
            cores.iter().zip(&o.finish_ipc).map(|(c, f)| f.unwrap_or_else(|| c.ipc())).collect();
        Self { now: o.now, per_core_ipc, skipped_cycles: o.stats.skipped_cycles }
    }
}

/// The loop of `coaxial_system::engine::run_lockstep` with skipping on,
/// step for step, with every layer call wrapped in a span. Also returns
/// the number of visited cycles.
fn drive<B: MemoryBackend>(
    p: &RunParams,
    cores: &mut [Core],
    h: &mut Hierarchy<B>,
) -> (RunOutcome, u64) {
    let n = cores.len();
    let mut now: Cycle = 0;
    let mut warm = p.warmup == 0;
    let mut finish_ipc: Vec<Option<f64>> = vec![None; n];
    let mut visited_cycles = 0u64;
    let mut stats = EngineStats::default();
    while now < p.max_cycles {
        let sampled = visited_cycles.is_multiple_of(STRIDE);
        if sampled {
            cycle_begin();
        }
        visited_cycles += 1;
        span(Layer::Cache, || h.tick(now));
        span(Layer::Cache, || {
            while let Some((core, id)) = h.pop_completion() {
                if let Some(c) = cores.get_mut(core as usize) {
                    span(Layer::Cpu, || c.on_memory_complete(id));
                }
            }
        });
        // One span for all cores: a core tick costs about as much as a
        // clock read, so per-core spans would mostly measure the clock.
        span(Layer::Cpu, || cores.iter_mut().for_each(|c| c.tick(now, h)));
        now += 1;

        // Warm-up flip and finish checks, as `engine::window_checks`.
        if !warm && cores.iter().all(|c| c.retired >= p.warmup) {
            warm = true;
            h.reset_stats(now);
            cores.iter_mut().for_each(Core::reset_stats);
        }
        let mut done = warm;
        if warm {
            for (i, c) in cores.iter().enumerate() {
                if finish_ipc[i].is_none() {
                    if c.retired >= p.instructions {
                        finish_ipc[i] = Some(c.ipc());
                    } else {
                        done = false;
                    }
                }
            }
        }

        if !done {
            // Cycle skipping exactly as the lockstep engine does it.
            span(Layer::Engine, || {
                let mut target = Cycle::MAX;
                for c in cores.iter() {
                    match c.next_event() {
                        Some(e) => target = target.min(e),
                        None => return,
                    }
                }
                target = target.min(h.next_event(now.saturating_sub(1)));
                stats.blocked_iters += 1;
                let target = target.min(p.max_cycles - 1);
                if target > now {
                    stats.skipped_cycles += target - now;
                    for c in cores.iter_mut() {
                        c.fast_forward(target - now);
                    }
                    now = target;
                }
            });
        }
        if sampled {
            cycle_end();
        }
        if done {
            break;
        }
    }
    (RunOutcome { now, finish_ipc, stats }, visited_cycles)
}

/// Replay the production prefill cold (`Simulation::prefill_replay`
/// without the checkpoint stores), timing the generators and the
/// `prefill_access` stream separately.
fn prefill<B: MemoryBackend>(h: &mut Hierarchy<B>, spec: &RunSpec, out: &mut SpecProfile) {
    const PREFETCH_AHEAD: usize = 8;
    let func = &spec.config.functional;
    let llc_lines_total =
        coaxial_sim::trunc_usize(func.llc_mb_per_core * 1024.0 * 1024.0 / 64.0) * func.cores;
    let round_ops = (llc_lines_total / func.active_cores.max(1)).max(4096);
    let mut gens: Vec<Box<dyn TraceSource + Send>> = (0..func.active_cores)
        .map(|i| spec.workloads[i].trace(coaxial_sim::small_u32(i), func.seed ^ 0xF111))
        .collect();
    let mut round: Vec<(u64, bool)> = Vec::with_capacity(round_ops);
    for _ in 0..8 {
        for (i, g) in gens.iter_mut().enumerate() {
            let core = coaxial_sim::small_u32(i);
            let t = Instant::now();
            round.clear();
            round.extend((0..round_ops).map(|_| g.next_access()));
            out.gen_ns += t.elapsed().as_nanos() as f64;
            let t = Instant::now();
            for (j, &(line, is_store)) in round.iter().enumerate() {
                if let Some(&(ahead, _)) = round.get(j + PREFETCH_AHEAD) {
                    h.prefill_prefetch(core, ahead);
                }
                h.prefill_access(core, line, is_store);
            }
            out.prefill_ns += t.elapsed().as_nanos() as f64;
            out.accesses += round.len() as u64;
        }
        let [_, _, (llc_valid, _)] = h.occupancy();
        if llc_valid >= llc_lines_total * 9 / 10 {
            break;
        }
    }
}

fn cores_for(spec: &RunSpec) -> Vec<Core> {
    let func = &spec.config.functional;
    (0..func.active_cores)
        .map(|i| {
            let id = coaxial_sim::small_u32(i);
            Core::new(id, CoreParams::default(), spec.workloads[i].trace(id, func.seed))
        })
        .collect()
}

fn hierarchy_config(spec: &RunSpec) -> HierarchyConfig {
    let cfg = &spec.config;
    let func = &cfg.functional;
    HierarchyConfig {
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
    }
}

fn same_as(o: &LoopOutcome, stats: (u64, ChannelStats), production: &RunReport) -> bool {
    let (llc_misses, ddr) = stats;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    o.now == production.cycles
        && bits(&o.per_core_ipc) == bits(&production.per_core_ipc)
        && llc_misses == production.hier.llc_misses
        && ddr.reads == production.ddr.reads
        && ddr.writes == production.ddr.writes
}

/// Profile one spec: cold prefill, checkpoint round trip, then the traced
/// loop and the production lockstep engine (order alternating with
/// `flip`), each checked against `production`. Call [`calibrate`] once first.
pub fn replicate(spec: &RunSpec, production: &RunReport, flip: bool, dump: bool) -> SpecProfile {
    let cfg = &spec.config;
    match &cfg.timing.memory {
        MemorySystemKind::DirectDdr { channels } => replicate_with(
            spec,
            production,
            || MultiChannel::new(&cfg.timing.dram, *channels),
            Layer::Dram,
            flip,
            dump,
        ),
        MemorySystemKind::Cxl { link, channels } => replicate_with(
            spec,
            production,
            || CxlMemory::new(link, &cfg.timing.dram, *channels),
            Layer::Cxl,
            flip,
            dump,
        ),
    }
}

fn replicate_with<B: MemoryBackend>(
    spec: &RunSpec,
    production: &RunReport,
    make: impl Fn() -> B,
    layer: Layer,
    flip: bool,
    dump: bool,
) -> SpecProfile {
    let mut out = SpecProfile::default();
    let hcfg = hierarchy_config(spec);
    let elapsed_ns = |t: Instant| t.elapsed().as_nanos() as f64;

    let mut cold = Hierarchy::new(hcfg.clone(), make());
    prefill(&mut cold, spec, &mut out);
    let t = Instant::now();
    let state = cold.export_prefill_state();
    out.export_ns = elapsed_ns(t);
    drop(cold);
    let t = Instant::now();
    let mut bytes = Vec::new();
    state.encode(&mut bytes);
    out.encode_ns = elapsed_ns(t);
    out.state_bytes = bytes.len() as u64;
    let t = Instant::now();
    let state = PrefillState::decode(&bytes).expect("a freshly encoded prefill state decodes");
    out.decode_ns = elapsed_ns(t);
    drop(bytes);

    let mut traced = Hierarchy::new(hcfg.clone(), Timed { inner: make(), layer });
    let t = Instant::now();
    traced.import_prefill_state(&state);
    out.import_ns = elapsed_ns(t);
    traced.finish_prefill();
    let mut plain = Hierarchy::new(hcfg, make());
    plain.import_prefill_state(&state);
    plain.finish_prefill();
    drop(state);

    let p = RunParams {
        warmup: spec.warmup,
        instructions: spec.instructions,
        max_cycles: (spec.warmup + spec.instructions) * 120,
        skip: true,
    };
    let mut traced_cores = cores_for(spec);
    let mut plain_cores = cores_for(spec);
    out.cores = traced_cores.len() as u64;

    let mut run_traced = || {
        reset(dump);
        let t = Instant::now();
        let (o, visited) = drive(&p, &mut traced_cores, &mut traced);
        let ns = elapsed_ns(t);
        REC.with(|r| {
            let mut r = r.borrow_mut();
            out.sampled = r.sums;
            out.dump = r.dump.take();
        });
        out.calls = CALLS.with(|c| std::array::from_fn(|i| c[i].get()));
        out.traced_loop_ns = ns;
        out.visited_cycles = visited;
        o
    };
    let mut run_plain = || {
        let t = Instant::now();
        let o = run_lockstep(&p, &mut plain_cores, &mut plain);
        (o, elapsed_ns(t))
    };
    let (traced_outcome, (plain_outcome, plain_ns)) = if flip {
        let plain = run_plain();
        (run_traced(), plain)
    } else {
        let traced = run_traced();
        (traced, run_plain())
    };
    let traced_outcome = LoopOutcome::new(&traced_outcome, &traced_cores);
    let plain_outcome = LoopOutcome::new(&plain_outcome, &plain_cores);
    out.untraced_loop_ns = plain_ns;
    out.skipped_cycles = traced_outcome.skipped_cycles;
    out.final_cycles = traced_outcome.now;
    out.matches = traced_outcome.skipped_cycles == plain_outcome.skipped_cycles
        && same_as(
            &traced_outcome,
            (traced.stats().llc_misses, traced.backend().ddr_stats()),
            production,
        )
        && same_as(
            &plain_outcome,
            (plain.stats().llc_misses, plain.backend().ddr_stats()),
            production,
        );
    out
}
