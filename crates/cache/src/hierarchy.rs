//! The full on-chip memory hierarchy: per-core L1D and L2, a distributed
//! shared non-inclusive LLC, the NoC, and the memory backend.
//!
//! # Access flow (paper Fig. 4)
//!
//! An access walks L1 → L2; on an L2 miss the CALM engine decides between
//! the **serial** path (LLC lookup, then memory on an LLC miss) and the
//! **CALM** path (LLC lookup and memory fetch issued concurrently; the LLC
//! response is always awaited, so a stale memory response for an LLC-hit
//! line is dropped — preserving the paper's coherence rule).
//!
//! # Timing accounting
//!
//! Every L2 miss's latency is decomposed exactly as the paper's Figs. 2b/5:
//! *on-chip* (NoC + LLC, and CALM's wait-for-LLC overhang), *queuing*
//! (controller queues anywhere between L2 and DRAM, including CXL message
//! queues and link contention), *DRAM service*, and *CXL interface* (the
//! fixed port + serialization budget). The components always sum to the
//! measured total.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};

use coaxial_dram::{MemRequest, MemoryBackend};
use coaxial_sim::{Cycle, Histogram};
use coaxial_telemetry::{
    CounterEvent, MetricsRegistry, MissRecord, NullTelemetry, TelemetrySink, TraceEvent,
};

use crate::cache::CacheArray;
use crate::calm::{CalmEngine, CalmPolicy, CalmStats};
use crate::mshr::Mshr;
use crate::noc::Mesh;
use crate::prefetch::{self, PrefetchPolicy, PrefetchStats, StrideTable};

/// Caller token of a [`AccessResult::Pending`] access, handed back by
/// [`Hierarchy::pop_completion`] when it completes.
pub type AccessId = u64;

/// Trace-lane (`pid`) convention for the event tracer: Perfetto renders a
/// separate process group per `pid`, so each component class gets its own
/// base offset (the component instance index is added on top).
pub mod trace_pid {
    /// Core-side view of each L2 miss (one lane for all cores; `tid` = core).
    pub const CORE: u32 = 1;
    /// LLC bank lanes: `LLC_BANK_BASE + bank`.
    pub const LLC_BANK_BASE: u32 = 100;
    /// Memory-channel lanes: `MEM_CHANNEL_BASE + channel`.
    pub const MEM_CHANNEL_BASE: u32 = 200;
    /// Aggregate bandwidth-over-time counter track (Perfetto "C" events).
    pub const MEM_BW: u32 = 300;
}

/// Outcome of [`Hierarchy::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The access completes at this (future) cycle; no callback will fire.
    Done(Cycle),
    /// The access is memory-bound; its token comes back from
    /// [`Hierarchy::pop_completion`].
    Pending,
    /// L2 MSHRs are full: the core must retry next cycle.
    Retry,
}

/// L2 MSHRs per core in the Table III configuration.
pub const L2_MSHRS: usize = 16;

/// Sizes of the cache arrays (paper Table III): one L1 and one L2 per
/// core and one LLC bank per core tile. Together with the access streams
/// this is all a warmed [`PrefillState`] depends on; nothing here is
/// timing.
#[derive(Debug, Clone)]
pub struct CacheGeometry {
    pub cores: usize,
    pub l1_bytes: u64,
    pub l1_assoc: usize,
    pub l2_bytes: u64,
    pub l2_assoc: usize,
    /// LLC capacity per core (the LLC is banked per core tile).
    pub llc_bytes_per_core: u64,
    pub llc_assoc: usize,
}

impl CacheGeometry {
    /// Paper Table III arrays for `cores` core tiles with the given
    /// LLC-per-core capacity.
    pub fn table_iii(cores: usize, llc_mb_per_core: f64) -> Self {
        Self {
            cores,
            l1_bytes: 32 * 1024,
            l1_assoc: 8,
            l2_bytes: 512 * 1024,
            l2_assoc: 8,
            llc_bytes_per_core: coaxial_sim::trunc_u64(llc_mb_per_core * 1024.0 * 1024.0),
            llc_assoc: 16,
        }
    }
}

/// Static configuration of the hierarchy (paper Table III).
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    pub geometry: CacheGeometry,
    pub l1_latency: Cycle,
    pub l2_latency: Cycle,
    pub llc_latency: Cycle,
    pub l2_mshrs: usize,
    pub noc_cycles_per_hop: Cycle,
    /// Number of memory-channel tiles on the mesh edges.
    pub mem_channels: usize,
    /// Aggregate peak memory bandwidth in bytes/cycle (CALM_R budget base).
    pub peak_mem_bytes_per_cycle: f64,
    pub calm: CalmPolicy,
    /// CALM_R monitoring epoch, cycles.
    pub calm_epoch: Cycle,
    /// L2 prefetcher (an extension; the paper's configuration is `None`).
    pub prefetch: PrefetchPolicy,
    pub seed: u64,
}

impl HierarchyConfig {
    /// Paper Table III values for a 12-core slice with `mem_channels`
    /// memory channels and the given LLC-per-core capacity.
    pub fn table_iii(
        cores: usize,
        mem_channels: usize,
        llc_mb_per_core: f64,
        peak_mem_gbs: f64,
        calm: CalmPolicy,
    ) -> Self {
        Self {
            geometry: CacheGeometry::table_iii(cores, llc_mb_per_core),
            l1_latency: 4,
            l2_latency: 8,
            llc_latency: 20,
            l2_mshrs: L2_MSHRS,
            noc_cycles_per_hop: 3,
            mem_channels,
            peak_mem_bytes_per_cycle: coaxial_sim::gbs_to_bytes_per_cycle(peak_mem_gbs),
            calm,
            calm_epoch: crate::calm::CALM_EPOCH,
            prefetch: PrefetchPolicy::None,
            seed: 0xC0A_71A1,
        }
    }
}

/// One in-flight memory-bound transaction (primary L2 miss).
#[derive(Debug)]
struct Txn {
    line: u64,
    core: u32,
    calm: bool,
    /// When the LLC response reaches the requesting L2.
    llc_result_at: Cycle,
    /// When the L2 miss was determined (breakdown origin).
    t_l2_miss: Cycle,
    /// When the hierarchy wanted to enqueue the memory request.
    mem_issue_desired: Cycle,
    /// When the backend actually accepted it.
    mem_enqueued_at: Option<Cycle>,
    /// Memory response breakdown (queue, service, cxl), once received.
    resp_breakdown: Option<(Cycle, Cycle, Cycle)>,
    /// When the memory data reached the core tile (telemetry only: lets
    /// the attribution separate the CALM wait-for-LLC overhang from
    /// backend queueing; `None` when telemetry is disabled).
    mem_arrival: Option<Cycle>,
    /// Bring the line in dirty (a store among the waiters).
    wants_dirty: bool,
    /// Tokens of the accesses waiting on this transaction.
    waiters: Vec<AccessId>,
    /// CALM transaction whose LLC lookup hit: memory data will be dropped.
    drop_mem: bool,
    /// Speculative prefetch (no waiters; excluded from latency stats).
    prefetch: bool,
}

/// Aggregate hierarchy statistics over the measurement window.
#[derive(Debug, Clone, Default)]
pub struct HierStats {
    /// Primary (non-merged) demand L2 misses.
    pub l2_misses: u64,
    pub llc_hits: u64,
    pub llc_misses: u64,
    /// Demand reads issued to memory (including wasted CALM fetches).
    pub mem_reads: u64,
    /// Writebacks issued to memory.
    pub mem_writes: u64,
    /// CALM fetches whose data was dropped (LLC hit).
    pub wasted_mem_reads: u64,
    /// L2-miss latency component sums, in exact cycles (divide by
    /// `l2_misses` for means). Integer accumulators: the latency-ledger
    /// conservation proof — and lint T02 — require cycle sums to stay
    /// order-independent; conversion to f64 happens at the report boundary.
    pub onchip_cycles: u64,
    pub queue_cycles: u64,
    pub service_cycles: u64,
    pub cxl_cycles: u64,
    /// Distribution of total L2-miss latency.
    pub l2_miss_latency: Histogram,
    /// L1/L2 demand hit ratios at harvest time.
    pub l1_hit_ratio: f64,
    pub l2_hit_ratio: f64,
    pub calm: CalmStats,
    pub prefetch: PrefetchStats,
}

impl HierStats {
    pub fn mean_l2_miss_latency_cycles(&self) -> f64 {
        if self.l2_misses == 0 {
            0.0
        } else {
            (self.onchip_cycles + self.queue_cycles + self.service_cycles + self.cxl_cycles) as f64
                / self.l2_misses as f64
        }
    }

    /// Mean latency components in nanoseconds:
    /// (on-chip, queuing, DRAM service, CXL interface).
    pub fn breakdown_ns(&self) -> (f64, f64, f64, f64) {
        if self.l2_misses == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let n = self.l2_misses as f64;
        (
            coaxial_sim::cycles_f64_to_ns(self.onchip_cycles as f64 / n),
            coaxial_sim::cycles_f64_to_ns(self.queue_cycles as f64 / n),
            coaxial_sim::cycles_f64_to_ns(self.service_cycles as f64 / n),
            coaxial_sim::cycles_f64_to_ns(self.cxl_cycles as f64 / n),
        )
    }

    /// LLC miss ratio among L2 misses.
    pub fn llc_miss_ratio(&self) -> f64 {
        let total = self.llc_hits + self.llc_misses;
        if total == 0 {
            0.0
        } else {
            self.llc_misses as f64 / total as f64
        }
    }

    /// Export the hierarchy counters into a metrics registry under `prefix`
    /// (conventionally `"hier"`).
    pub fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.set_counter(&format!("{prefix}.l2_misses"), self.l2_misses);
        reg.set_counter(&format!("{prefix}.llc.hits"), self.llc_hits);
        reg.set_counter(&format!("{prefix}.llc.misses"), self.llc_misses);
        reg.set_counter(&format!("{prefix}.mem.reads"), self.mem_reads);
        reg.set_counter(&format!("{prefix}.mem.writes"), self.mem_writes);
        reg.set_counter(&format!("{prefix}.mem.wasted_reads"), self.wasted_mem_reads);
        reg.set_gauge(&format!("{prefix}.l1.hit_ratio"), self.l1_hit_ratio);
        reg.set_gauge(&format!("{prefix}.l2.hit_ratio"), self.l2_hit_ratio);
        reg.set_gauge(&format!("{prefix}.onchip_cycles"), self.onchip_cycles as f64);
        reg.set_gauge(&format!("{prefix}.queue_cycles"), self.queue_cycles as f64);
        reg.set_gauge(&format!("{prefix}.service_cycles"), self.service_cycles as f64);
        reg.set_gauge(&format!("{prefix}.cxl_cycles"), self.cxl_cycles as f64);
        reg.put_histogram(&format!("{prefix}.l2_miss_latency"), self.l2_miss_latency.clone());
        reg.set_counter(&format!("{prefix}.calm.true_pos"), self.calm.true_pos);
        reg.set_counter(&format!("{prefix}.calm.true_neg"), self.calm.true_neg);
        reg.set_counter(&format!("{prefix}.calm.false_pos"), self.calm.false_pos);
        reg.set_counter(&format!("{prefix}.calm.false_neg"), self.calm.false_neg);
        reg.set_counter(&format!("{prefix}.prefetch.issued"), self.prefetch.issued);
        reg.set_counter(&format!("{prefix}.prefetch.useful"), self.prefetch.useful);
    }
}

/// Event: a transaction's memory request becomes eligible for enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct MemIssue {
    at: Cycle,
    txn: u32,
}

/// Event: a transaction's data is ready to deliver to its waiters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Finish {
    at: Cycle,
    txn: u32,
}

/// The cache arrays: each core's L1 and L2 and the LLC's per-tile banks.
///
/// This is the whole of what the functional prefill warms, and it is a
/// value: built from a [`CacheGeometry`] alone and warmed through
/// [`PrefillState::prefill_access`], with no backend, timing or telemetry
/// in reach. A [`Hierarchy`] is built around one
/// ([`Hierarchy::with_telemetry`]) and hands its functional operations
/// to it.
#[derive(Clone)]
pub struct PrefillState {
    l1: Vec<CacheArray>,
    l2: Vec<CacheArray>,
    llc: Vec<CacheArray>,
}

impl PrefillState {
    /// Empty arrays of geometry `g`.
    pub fn new(g: &CacheGeometry) -> Self {
        assert!(g.cores > 0);
        let level = |bytes, assoc| (0..g.cores).map(|_| CacheArray::new(bytes, assoc)).collect();
        Self {
            l1: level(g.l1_bytes, g.l1_assoc),
            l2: level(g.l2_bytes, g.l2_assoc),
            llc: level(g.llc_bytes_per_core, g.llc_assoc),
        }
    }

    /// Whether every array has geometry `g` (a decoded disk checkpoint
    /// may come from another build's cache configuration).
    pub fn fits(&self, g: &CacheGeometry) -> bool {
        let level = |arrays: &[CacheArray], bytes, assoc| {
            arrays.len() == g.cores && arrays.iter().all(|a| a.has_geometry(bytes, assoc))
        };
        level(&self.l1, g.l1_bytes, g.l1_assoc)
            && level(&self.l2, g.l2_bytes, g.l2_assoc)
            && level(&self.llc, g.llc_bytes_per_core, g.llc_assoc)
    }

    /// Approximate heap footprint of the warmed arrays, in bytes — the
    /// sizing input for the byte-bounded prefill cache in `coaxial-system`.
    pub fn approx_bytes(&self) -> u64 {
        self.l1.iter().chain(&self.l2).chain(&self.llc).map(CacheArray::approx_heap_bytes).sum()
    }

    /// Functionally warm the arrays with one access (no timing, no memory
    /// traffic): [`l1_stage`] on the core's L1, then [`lower_stage`] on
    /// the L2 and LLC for each operation that logs. A prefill stands in for
    /// the paper's 50 M-instruction warmup, so short runs begin at a
    /// realistic steady state: dirty lines resident and ready to spill. A
    /// dirty LLC victim's writeback is dropped, since no memory system is
    /// in reach. A long stream goes through [`PrefillState::walk`], which
    /// runs the same two stages on two threads.
    #[inline]
    pub fn prefill_access(&mut self, core: u32, line: u64, is_write: bool) {
        let Self { l1, l2, llc } = self;
        l1_stage(&mut l1[core as usize], core, line, is_write, |op| lower_stage(l2, llc, op));
    }

    /// Functionally warm the arrays with the accesses `feed` gives the
    /// [`PrefillWalk`] it is handed, exactly as
    /// [`PrefillState::prefill_access`] on each in turn would, in two
    /// stages on two threads. The calling thread runs `feed` (so the
    /// generators stay where they are), walks each access through its
    /// core's L1 and logs what reaches the L2, a chunk at a time. One
    /// scoped helper thread applies the chunks to the L2s and the LLC banks
    /// in FIFO order. The L1 never reads the state of the levels below it,
    /// so the split changes no array. If the helper cannot be spawned, the
    /// caller runs both stages.
    pub fn walk<R>(&mut self, feed: impl FnOnce(&mut PrefillWalk<'_>) -> R) -> R {
        self.walk_on(true, feed)
    }

    /// [`PrefillState::walk`], with the lower stage on a helper thread
    /// only if `helper` is set and the spawn succeeds.
    fn walk_on<R>(&mut self, helper: bool, feed: impl FnOnce(&mut PrefillWalk<'_>) -> R) -> R {
        let Self { l1, l2, llc } = self;
        std::thread::scope(|s| {
            let (to_helper, chunks) = mpsc::sync_channel(CHUNKS_AHEAD);
            let (to_caller, counts) = mpsc::channel();
            let spawned = helper
                && std::thread::Builder::new()
                    .name("prefill-lower".into())
                    .spawn_scoped(s, move || lower_helper(&chunks, &to_caller))
                    .is_ok();
            let lower = if spawned {
                // The arrays go to the helper only once it runs, so a
                // failed spawn leaves them here for the inline stage.
                to_helper.send(ToLower::Arrays(l2, llc)).expect("the lower helper is running");
                Lower::Helper { to_helper, counts }
            } else {
                Lower::Inline(l2, llc)
            };
            let mut walk = PrefillWalk { l1, taken: 0, log: Vec::new(), lower };
            let out = feed(&mut walk);
            walk.pass_on();
            out
        })
    }

    /// Host-prefetch the tag sets [`PrefillState::prefill_access`] would
    /// probe for `(core, line)`. Purely a performance hint: issued a few
    /// accesses ahead, it overlaps the host memory misses the probes would
    /// otherwise serialize on. Touches no simulated state.
    #[inline]
    pub fn prefill_prefetch(&self, core: u32, line: u64) {
        let c = core as usize;
        self.l1[c].prefetch_set(line);
        self.l2[c].prefetch_set(line);
        self.llc[llc_bank(self.llc.len(), line)].prefetch_set(line);
    }

    /// (valid, dirty) line counts per level summed over cores/banks
    /// (test/debug aid).
    pub fn occupancy(&self) -> [(usize, usize); 3] {
        let sum = |arr: &[CacheArray]| {
            arr.iter().fold((0, 0), |(v, d), a| (v + a.valid_count(), d + a.dirty_count()))
        };
        [sum(&self.l1), sum(&self.l2), sum(&self.llc)]
    }

    /// Fill a line into a core's L1; a dirty victim merges into the L2
    /// (write-back, on-chip only). Returns what that spilled into the LLC,
    /// as [`PrefillState::fill_l2`].
    fn fill_l1(&mut self, core: usize, line: u64, dirty: bool) -> Option<Spill> {
        match self.l1[core].fill(line, dirty) {
            Some(ev) if ev.dirty => self.fill_l2(core, ev.line_addr, true),
            _ => None,
        }
    }

    /// Fill a line into a core's L2, spilling a dirty victim into the LLC.
    /// Returns the spilled line with the dirty LLC victim it displaced,
    /// whose writeback is the caller's to issue or drop.
    fn fill_l2(&mut self, core: usize, line: u64, dirty: bool) -> Option<Spill> {
        match self.l2[core].fill(line, dirty) {
            Some(ev) if ev.dirty => {
                Some((ev.line_addr, fill_llc(&mut self.llc, ev.line_addr, true)))
            }
            _ => None,
        }
    }

    /// Zero every array's demand hit/miss counters; contents stay.
    fn reset_stats(&mut self) {
        self.l1
            .iter_mut()
            .chain(&mut self.l2)
            .chain(&mut self.llc)
            .for_each(CacheArray::reset_stats);
    }
}

/// A dirty line an L1 or L2 fill pushed down into the LLC, and the dirty
/// LLC victim that displaced in turn.
type Spill = (u64, Option<u64>);

/// LLC bank for a line among `banks` (address-hashed across core tiles).
#[inline]
fn llc_bank(banks: usize, line: u64) -> usize {
    // Mix the bits so strided streams spread over banks.
    let mut x = line;
    x = (x ^ (x >> 17)).wrapping_mul(0xED5A_D4BB_AC4C_1B51);
    coaxial_sim::idx(x % banks as u64)
}

/// Fill a line into its bank among the LLC `banks`; returns a dirty
/// victim's line.
#[inline]
fn fill_llc(banks: &mut [CacheArray], line: u64, dirty: bool) -> Option<u64> {
    let bank = &mut banks[llc_bank(banks.len(), line)];
    bank.fill(line, dirty).filter(|ev| ev.dirty).map(|ev| ev.line_addr)
}

/// Accesses a [`PrefillWalk`] takes between two hand-overs of its log.
const WALK_CHUNK: usize = 4096;

/// How many operations ahead of the one it applies the lower stage of a
/// walk host-prefetches the tag sets.
const PREFETCH_AHEAD: usize = 8;

/// Logged chunks the calling thread of a walk may send ahead of the
/// helper, which bounds the log's memory.
const CHUNKS_AHEAD: usize = 4;

/// What a prefill access needs from the L2 and the LLC, as the L1 stage
/// logs it for the lower stage.
#[derive(Clone, Copy)]
enum LowerOp {
    /// The access missed the core's L1.
    Access { core: u32, line: u64, is_write: bool },
    /// A dirty L1 victim merges into the core's L2.
    Spill { core: u32, line: u64 },
}

impl LowerOp {
    /// The core and line whose L2 and LLC sets the operation probes.
    fn target(self) -> (u32, u64) {
        match self {
            Self::Access { core, line, .. } | Self::Spill { core, line } => (core, line),
        }
    }
}

/// The L1 stage of a prefill access: probe and fill the core's L1 and
/// hand what reaches the L2 to `lower`, in the order [`lower_stage`] must
/// apply it. The L1 reads nothing below it, so this stage may run ahead.
///
/// The two stages are the hottest code of a short run by far (the prefill
/// streams a multiple of the LLC capacity through the arrays), so every
/// level is probed exactly once: `prefill_touch` merges the presence check
/// with the dirty-bit update, and the `fill_absent` calls skip the
/// presence scan a failed probe already paid for. State transitions are
/// identical to the naive peek/mark_dirty/fill sequence.
#[inline]
fn l1_stage(
    l1: &mut CacheArray,
    core: u32,
    line: u64,
    is_write: bool,
    mut lower: impl FnMut(LowerOp),
) {
    if l1.prefill_touch(line, is_write) {
        return;
    }
    lower(LowerOp::Access { core, line, is_write });
    // Absent from the L1 (first probe).
    if let Some(ev) = l1.fill_absent(line, is_write).filter(|ev| ev.dirty) {
        lower(LowerOp::Spill { core, line: ev.line_addr });
    }
}

/// The lower stage of a prefill access: apply one operation [`l1_stage`]
/// logged to the core's L2 and, for what that pushes down, the LLC `banks`.
#[inline]
fn lower_stage(l2: &mut [CacheArray], banks: &mut [CacheArray], op: LowerOp) {
    let spill = match op {
        LowerOp::Access { core, line, is_write } => {
            let l2 = &mut l2[core as usize];
            if l2.prefill_touch(line, is_write) {
                return;
            }
            let bank = &mut banks[llc_bank(banks.len(), line)];
            if !bank.peek(line) {
                // Clean fill of a line absent from the LLC bank.
                bank.fill_absent(line, false);
            }
            // Absent from the L2 (probe above); victims spill as usual.
            l2.fill_absent(line, is_write)
        }
        LowerOp::Spill { core, line } => l2[core as usize].fill(line, true),
    };
    if let Some(ev) = spill.filter(|ev| ev.dirty) {
        fill_llc(banks, ev.line_addr, true);
    }
}

/// [`lower_stage`] on a chunk of operations in order, the L2 and LLC tag
/// sets host-prefetched a few operations ahead.
fn lower_stage_chunk(l2: &mut [CacheArray], banks: &mut [CacheArray], ops: &[LowerOp]) {
    for (j, &op) in ops.iter().enumerate() {
        if let Some(&ahead) = ops.get(j + PREFETCH_AHEAD) {
            let (core, line) = ahead.target();
            l2[core as usize].prefetch_set(line);
            banks[llc_bank(banks.len(), line)].prefetch_set(line);
        }
        lower_stage(l2, banks, op);
    }
}

/// Valid lines summed over the LLC banks.
fn llc_valid(banks: &[CacheArray]) -> usize {
    banks.iter().map(CacheArray::valid_count).sum()
}

/// What the calling thread of a [`PrefillState::walk`] sends its helper,
/// in order.
enum ToLower<'a> {
    /// The L2s and the LLC banks, first and once.
    Arrays(&'a mut [CacheArray], &'a mut [CacheArray]),
    /// A chunk of logged operations to apply.
    Ops(Vec<LowerOp>),
    /// A request for the LLC's valid line count, once every chunk sent
    /// before it is applied.
    Count,
}

/// The helper thread of a [`PrefillState::walk`]: applies what the caller
/// sends in FIFO order and answers each count, until the caller hangs up.
/// It runs in the idle scheduling class ([`yield_to_every_other_thread`]).
fn lower_helper(chunks: &Receiver<ToLower<'_>>, to_caller: &Sender<usize>) {
    yield_to_every_other_thread();
    let (mut l2, mut banks): (&mut [CacheArray], &mut [CacheArray]) = (&mut [], &mut []);
    for msg in chunks {
        match msg {
            ToLower::Arrays(l2s, llc) => (l2, banks) = (l2s, llc),
            ToLower::Ops(ops) => lower_stage_chunk(l2, banks, &ops),
            ToLower::Count => {
                if to_caller.send(llc_valid(banks)).is_err() {
                    return;
                }
            }
        }
    }
}

/// Put the calling thread in Linux's `SCHED_IDLE` class, so it runs only
/// on a CPU no other thread of the host wants. A walk's helper speeds a
/// warm up with a CPU that would sit idle; where every CPU is busy (a job
/// pool as wide as the host, a gateway serving hits, another process's
/// timed run), it must not take one. The caller then fills the bounded
/// channel and blocks, and the helper runs on the first CPU that frees,
/// so the warm goes at about the one-thread pace. Elsewhere, or if the
/// kernel refuses, the thread keeps its class.
#[cfg(target_os = "linux")]
fn yield_to_every_other_thread() {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler(2)` with pid 0 changes only the calling
    // thread's policy and reads one `struct sched_param` (a single int)
    // through a pointer to a live local; libc provides the symbol on
    // every Linux target. Moving to SCHED_IDLE needs no privilege, and a
    // refusal leaves the thread as it was, so the result is not needed.
    unsafe {
        sched_setscheduler(0, SCHED_IDLE, &param);
    }
}

#[cfg(not(target_os = "linux"))]
fn yield_to_every_other_thread() {}

/// Where a walk's lower stage runs.
enum Lower<'a> {
    /// On the calling thread, chunk by chunk.
    Inline(&'a mut [CacheArray], &'a mut [CacheArray]),
    /// On the helper thread, fed through a bounded channel.
    Helper { to_helper: SyncSender<ToLower<'a>>, counts: Receiver<usize> },
}

/// The calling thread's side of a [`PrefillState::walk`]: it takes each
/// access, walks it through its core's L1, and hands what that logs for
/// the L2s and the LLC on a chunk at a time.
pub struct PrefillWalk<'a> {
    l1: &'a mut [CacheArray],
    /// Accesses taken since the log was last handed on.
    taken: usize,
    /// What those accesses logged for the lower stage, in order.
    log: Vec<LowerOp>,
    lower: Lower<'a>,
}

impl PrefillWalk<'_> {
    /// Warm with one access of `core`; accesses apply in the order taken.
    #[inline]
    pub fn access(&mut self, core: u32, line: u64, is_write: bool) {
        let log = &mut self.log;
        l1_stage(&mut self.l1[core as usize], core, line, is_write, |op| log.push(op));
        self.taken += 1;
        if self.taken == WALK_CHUNK {
            self.pass_on();
        }
    }

    /// Valid lines in the LLC once every access taken so far is applied.
    pub fn llc_valid(&mut self) -> usize {
        self.pass_on();
        match &mut self.lower {
            Lower::Inline(_, banks) => llc_valid(banks),
            Lower::Helper { to_helper, counts } => {
                to_helper.send(ToLower::Count).expect("the lower helper is running");
                counts.recv().expect("the lower helper answers")
            }
        }
    }

    /// Hand the log on to the lower stage.
    fn pass_on(&mut self) {
        self.taken = 0;
        if self.log.is_empty() {
            return;
        }
        match &mut self.lower {
            Lower::Inline(l2, banks) => {
                lower_stage_chunk(l2, banks, &self.log);
                self.log.clear();
            }
            Lower::Helper { to_helper, .. } => {
                let ops = std::mem::replace(&mut self.log, Vec::with_capacity(2 * WALK_CHUNK));
                to_helper.send(ToLower::Ops(ops)).expect("the lower helper is running");
            }
        }
    }
}

/// Disk-tier codec for warmed prefill state: three level counts followed by
/// each array's [`CacheArray::encode_into`] payload. Decoding validates
/// every array structurally; whether a decoded state fits a hierarchy's
/// geometry is [`PrefillState::fits`]'s to say.
impl coaxial_sim::Snapshot for PrefillState {
    fn encode(&self, out: &mut Vec<u8>) {
        for level in [&self.l1, &self.l2, &self.llc] {
            coaxial_sim::checkpoint::codec::put_u64(out, level.len() as u64);
            for arr in level {
                arr.encode_into(out);
            }
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = coaxial_sim::checkpoint::codec::Reader::new(bytes);
        let mut level = || -> Option<Vec<CacheArray>> {
            let n = usize::try_from(r.u64()?).ok()?;
            // Core counts are tiny; cap so a corrupt count cannot allocate.
            if n > 4096 {
                return None;
            }
            (0..n).map(|_| CacheArray::decode_from(&mut r)).collect()
        };
        let l1 = level()?;
        let l2 = level()?;
        let llc = level()?;
        r.done().then_some(Self { l1, l2, llc })
    }
}

/// The hierarchy, generic over the memory backend and the telemetry sink.
///
/// The default sink, [`NullTelemetry`], has `ENABLED = false`: every
/// telemetry stamping site is behind `if T::ENABLED`, so the default
/// monomorphization compiles to exactly the pre-telemetry code (verified by
/// the equivalence test in `coaxial-system` and the `sim_throughput`
/// bench). Pass a `TelemetryRecorder` via
/// [`Hierarchy::with_telemetry`] to capture per-request latency
/// attribution and trace events.
pub struct Hierarchy<B: MemoryBackend, T: TelemetrySink = NullTelemetry> {
    cfg: HierarchyConfig,
    arrays: PrefillState,
    mesh: Mesh,
    mshr: Vec<Mshr>,
    calm: CalmEngine,
    backend: B,

    stride_tables: Vec<StrideTable>,
    /// Lines brought in by a prefetch and not yet touched by demand.
    prefetched_lines: BTreeSet<u64>,
    pf_stats: PrefetchStats,

    /// Transaction slots; a read's memory request carries its slot as id.
    txns: Vec<Option<Txn>>,
    free_txns: Vec<u32>,
    /// Id of the next writeback request (nothing waits on a write's ack).
    next_write_id: u64,

    issue_events: BinaryHeap<Reverse<MemIssue>>,
    /// Transactions whose MemIssue fired, awaiting backend space (FIFO).
    issue_queue: VecDeque<u32>,
    finish_events: BinaryHeap<Reverse<Finish>>,
    /// Dirty-eviction writebacks awaiting backend space.
    writeback_queue: VecDeque<u64>,
    completed: VecDeque<(u32, AccessId)>,

    /// Per core, the line of its parked, refused access
    /// ([`Hierarchy::watch_refused`]), and whether that refusal may have
    /// ended since.
    refusal_watch: Vec<Option<u64>>,
    refusal_ended: Vec<bool>,

    stats: HierStats,
    tel: T,

    /// Bandwidth-over-time sampling (telemetry builds only): bytes of
    /// demand reads / writebacks accepted by the backend in the current
    /// epoch, flushed to the tracer as counter events at epoch boundaries.
    bw_epoch_start: Cycle,
    bw_read_bytes: u64,
    bw_write_bytes: u64,
}

/// Bandwidth counter-track epoch (cycles): ~1.7 µs at the 2.4 GHz system
/// clock — fine enough to see warmup ramps and CALM throttling in
/// Perfetto, coarse enough that a full run emits only thousands of samples.
const BW_EPOCH: Cycle = 4096;

impl<B: MemoryBackend> Hierarchy<B> {
    /// Empty arrays and telemetry disabled (the tier-1 fast path).
    pub fn new(cfg: HierarchyConfig, backend: B) -> Self {
        let arrays = PrefillState::new(&cfg.geometry);
        Self::with_telemetry(cfg, backend, NullTelemetry, arrays)
    }
}

impl<B: MemoryBackend, T: TelemetrySink> Hierarchy<B, T> {
    /// The one constructor body: a hierarchy around `arrays`, empty or
    /// warmed, which must fit `cfg.geometry` ([`PrefillState::fits`]);
    /// every other field starts fresh at cycle 0, initialized here alone.
    pub fn with_telemetry(cfg: HierarchyConfig, backend: B, tel: T, arrays: PrefillState) -> Self {
        assert!(arrays.fits(&cfg.geometry), "the cache arrays do not fit the hierarchy's geometry");
        let cores = cfg.geometry.cores;
        let mesh = Mesh::new(cores, cfg.mem_channels, cfg.noc_cycles_per_hop);
        let mshr = (0..cores).map(|_| Mshr::new(cfg.l2_mshrs)).collect();
        let calm = CalmEngine::with_epoch(
            cfg.calm,
            cfg.peak_mem_bytes_per_cycle,
            cfg.seed,
            cfg.calm_epoch,
        );
        Self {
            arrays,
            mesh,
            mshr,
            calm,
            backend,
            stride_tables: (0..cores).map(|_| StrideTable::new()).collect(),
            prefetched_lines: BTreeSet::new(),
            pf_stats: PrefetchStats::default(),
            txns: Vec::new(),
            free_txns: Vec::new(),
            next_write_id: 0,
            issue_events: BinaryHeap::new(),
            issue_queue: VecDeque::new(),
            finish_events: BinaryHeap::new(),
            writeback_queue: VecDeque::new(),
            completed: VecDeque::new(),
            refusal_watch: vec![None; cores],
            refusal_ended: vec![false; cores],
            stats: HierStats::default(),
            tel,
            bw_epoch_start: 0,
            bw_read_bytes: 0,
            bw_write_bytes: 0,
            cfg,
        }
    }

    /// Rebuild this hierarchy for the next detailed interval of a sampled
    /// run: the warmed arrays move into the one constructor without a copy,
    /// so all timing state restarts at cycle 0 on `backend`, as in a fresh
    /// run, and the telemetry sink carries over so one trace holds every
    /// interval.
    pub fn into_interval(self, backend: B) -> Self {
        let Self { cfg, arrays, tel, .. } = self;
        Self::with_telemetry(cfg, backend, tel, arrays)
    }

    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    pub fn telemetry(&self) -> &T {
        &self.tel
    }

    /// Tear the hierarchy down, handing back the telemetry sink.
    pub fn into_telemetry(self) -> T {
        self.tel
    }

    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// LLC bank for a line (the arrays' address hash across core tiles).
    #[inline]
    fn llc_bank(&self, line: u64) -> usize {
        llc_bank(self.arrays.llc.len(), line)
    }

    /// Memory-controller tile serving a line (matches backend interleave).
    #[inline]
    fn mc_of(&self, line: u64) -> usize {
        coaxial_sim::idx(line % self.cfg.mem_channels as u64)
    }

    fn alloc_txn(&mut self, txn: Txn) -> u32 {
        if let Some(id) = self.free_txns.pop() {
            self.txns[id as usize] = Some(txn);
            id
        } else {
            self.txns.push(Some(txn));
            coaxial_sim::small_u32(self.txns.len() - 1)
        }
    }

    /// Issue an access from `core`. `pc` feeds the MAP-I predictor. A
    /// [`AccessResult::Pending`] access hands `token` back from
    /// [`Hierarchy::pop_completion`].
    pub fn access(
        &mut self,
        core: u32,
        line: u64,
        is_write: bool,
        pc: u32,
        now: Cycle,
        token: AccessId,
    ) -> AccessResult {
        let c = core as usize;

        // Merge with an in-flight transaction for this line, if any.
        if let Some(txn_id) = self.mshr[c].lookup(line) {
            let txn = self.txns[txn_id as usize].as_mut().expect("live txn");
            if txn.prefetch {
                // A demand access caught an in-flight prefetch: from here
                // on it is an ordinary demand transaction.
                txn.prefetch = false;
                self.pf_stats.useful += 1;
            }
            txn.waiters.push(token);
            txn.wants_dirty |= is_write;
            return AccessResult::Pending;
        }

        // Demand touch of a previously prefetched, resident line.
        if self.cfg.prefetch != PrefetchPolicy::None && self.prefetched_lines.remove(&line) {
            self.pf_stats.useful += 1;
        }

        // Back-pressure check up front, with side-effect-free peeks: an
        // access that will need an MSHR but cannot get one must retry
        // WITHOUT perturbing LRU state, hit/miss counters, or the CALM
        // engine (it will be re-presented next cycle).
        if self.lacks_mshr(c, line) {
            return AccessResult::Retry;
        }

        // L1.
        if self.arrays.l1[c].lookup(line) {
            if is_write {
                self.arrays.l1[c].mark_dirty(line);
            }
            return AccessResult::Done(now + self.cfg.l1_latency);
        }
        let t_l1 = now + self.cfg.l1_latency;

        // L2.
        if self.arrays.l2[c].lookup(line) {
            self.fill_l1(c, line, is_write);
            return AccessResult::Done(t_l1 + self.cfg.l2_latency);
        }
        let t_l2_miss = t_l1 + self.cfg.l2_latency;

        // L2 miss: consult the LLC bank (functional) and the CALM engine.
        let bank = self.llc_bank(line);
        let llc_hit = self.arrays.llc[bank].lookup(line);
        let do_calm = self.calm.decide(pc, llc_hit, now);
        self.stats.l2_misses += 1;
        if self.cfg.prefetch != PrefetchPolicy::None {
            self.issue_prefetches(core, pc, line, t_l2_miss);
        }

        let noc_to_bank = self.mesh.tile_to_tile(c, bank);
        let llc_result_at = t_l2_miss + noc_to_bank + self.cfg.llc_latency + noc_to_bank;
        let mc = self.mc_of(line);

        if llc_hit {
            self.stats.llc_hits += 1;
            // Serve from the LLC; fill the upper levels now.
            self.fill_l2(c, line, is_write);
            self.fill_l1(c, line, is_write);
            if do_calm {
                // False positive: fetch memory anyway, drop the data.
                let txn_id = self.alloc_txn(Txn {
                    line,
                    core,
                    calm: true,
                    llc_result_at,
                    t_l2_miss,
                    mem_issue_desired: t_l2_miss + self.mesh.tile_to_mc(c, mc),
                    mem_enqueued_at: None,
                    resp_breakdown: None,
                    mem_arrival: None,
                    wants_dirty: false,
                    waiters: Vec::new(),
                    drop_mem: true,
                    prefetch: false,
                });
                let at = self.txns[txn_id as usize].as_ref().unwrap().mem_issue_desired;
                self.issue_events.push(Reverse(MemIssue { at, txn: txn_id }));
            }
            // Account the LLC-hit L2 miss as pure on-chip time.
            let latency = llc_result_at - t_l2_miss;
            self.stats.onchip_cycles += latency;
            self.stats.l2_miss_latency.record(latency);
            if T::ENABLED {
                // Conservation: total = 2*noc_to_bank + llc_latency = noc + llc.
                self.tel.on_miss(&MissRecord {
                    core,
                    line,
                    channel: 0,
                    calm: do_calm,
                    llc_hit: true,
                    t_l2_miss,
                    t_done: llc_result_at,
                    noc: 2 * noc_to_bank,
                    llc: self.cfg.llc_latency,
                    issue_wait: 0,
                    dram_queue: 0,
                    dram_service: 0,
                    cxl_link: 0,
                });
                self.tel.on_span(TraceEvent {
                    name: "llc_hit",
                    cat: "cache",
                    pid: trace_pid::LLC_BANK_BASE + coaxial_sim::small_u32(bank),
                    tid: core,
                    start: t_l2_miss,
                    dur: latency,
                    line,
                });
            }
            return AccessResult::Done(llc_result_at);
        }

        // LLC miss: a memory fetch is required. The up-front peek
        // guarantees an MSHR is available here.
        debug_assert!(!self.mshr[c].is_full(), "retry filter must have caught this");
        self.stats.llc_misses += 1;

        let mem_issue_desired = if do_calm {
            // Concurrent path: head straight for the memory controller.
            t_l2_miss + self.mesh.tile_to_mc(c, mc)
        } else {
            // Serial path: LLC lookup first, then bank → MC.
            t_l2_miss + noc_to_bank + self.cfg.llc_latency + self.mesh.tile_to_mc(bank, mc)
        };

        let txn_id = self.alloc_txn(Txn {
            line,
            core,
            calm: do_calm,
            llc_result_at,
            t_l2_miss,
            mem_issue_desired,
            mem_enqueued_at: None,
            resp_breakdown: None,
            mem_arrival: None,
            wants_dirty: is_write,
            waiters: vec![token],
            drop_mem: false,
            prefetch: false,
        });
        self.mshr[c].allocate(line, txn_id);
        self.issue_events.push(Reverse(MemIssue { at: mem_issue_desired, txn: txn_id }));
        AccessResult::Pending
    }

    /// Issue speculative fetches for the prefetch candidates of a demand
    /// L2 miss. Prefetches go straight to memory (the LLC was just
    /// peeked), fill the LLC and L2 on return, and never block a core.
    fn issue_prefetches(&mut self, core: u32, pc: u32, line: u64, t_l2_miss: Cycle) {
        let c = core as usize;
        let cands = prefetch::candidates(self.cfg.prefetch, &mut self.stride_tables[c], pc, line);
        for cand in cands {
            // Reserve headroom in the MSHRs for demand misses.
            if self.mshr[c].len() + 4 > self.mshr[c].capacity() {
                self.pf_stats.throttled += 1;
                continue;
            }
            if self.mshr[c].lookup(cand).is_some()
                || self.arrays.l2[c].peek(cand)
                || self.arrays.llc[self.llc_bank(cand)].peek(cand)
            {
                self.pf_stats.redundant += 1;
                continue;
            }
            let mc = self.mc_of(cand);
            let mem_issue_desired = t_l2_miss + self.mesh.tile_to_mc(c, mc);
            let txn_id = self.alloc_txn(Txn {
                line: cand,
                core,
                calm: false,
                llc_result_at: t_l2_miss,
                t_l2_miss,
                mem_issue_desired,
                mem_enqueued_at: None,
                resp_breakdown: None,
                mem_arrival: None,
                wants_dirty: false,
                waiters: Vec::new(),
                drop_mem: false,
                prefetch: true,
            });
            self.mshr[c].allocate(cand, txn_id);
            self.issue_events.push(Reverse(MemIssue { at: mem_issue_desired, txn: txn_id }));
            self.pf_stats.issued += 1;
        }
    }

    /// Fill a line into a core's L1; a dirty LLC victim goes to memory.
    fn fill_l1(&mut self, core: usize, line: u64, dirty: bool) {
        let spill = self.arrays.fill_l1(core, line, dirty);
        self.spilled(spill);
    }

    /// Fill a line into a core's L2; a dirty LLC victim goes to memory.
    fn fill_l2(&mut self, core: usize, line: u64, dirty: bool) {
        let spill = self.arrays.fill_l2(core, line, dirty);
        self.spilled(spill);
    }

    /// A dirty line spilled into the LLC; its dirty victim goes to memory.
    fn spilled(&mut self, spill: Option<Spill>) {
        if let Some((line, victim)) = spill {
            self.entered_llc(line);
            self.writeback_queue.extend(victim);
        }
    }

    /// Fill the LLC with a clean memory line; a dirty victim goes to memory.
    fn fill_llc_clean(&mut self, line: u64) {
        self.entered_llc(line);
        self.writeback_queue.extend(fill_llc(&mut self.arrays.llc, line, false));
    }

    /// The back-pressure verdict: every MSHR of core `c` is taken and the
    /// access would need one, its line being on chip nowhere `c` looks.
    fn lacks_mshr(&self, c: usize, line: u64) -> bool {
        self.mshr[c].is_full() && !self.probe_on_chip(c, line)
    }

    /// Whether `core`'s access to `line` would answer
    /// [`AccessResult::Retry`] and change nothing: no MSHR of `core` holds
    /// the line to merge with, no untouched prefetch brought it in (a
    /// demand touch would count that prefetch useful), and the core lacks
    /// the MSHR it would need.
    pub fn refuses(&self, core: usize, line: u64) -> bool {
        self.mshr[core].lookup(line).is_none()
            && !(self.cfg.prefetch != PrefetchPolicy::None && self.prefetched_lines.contains(&line))
            && self.lacks_mshr(core, line)
    }

    /// Watch a parked core whose access to `line` [`Hierarchy::refuses`]:
    /// [`Hierarchy::refusal_ended`] turns true once an MSHR of `core` is
    /// released or `line` enters the LLC. While the core issues nothing
    /// those are the only ways the refusal can end: its L1 and L2 change
    /// only through its own completions, each of which releases an MSHR,
    /// and a prefetched line is recorded only as it fills the LLC.
    pub fn watch_refused(&mut self, core: usize, line: u64) {
        self.refusal_watch[core] = Some(line);
        self.refusal_ended[core] = false;
    }

    /// Whether the refusal watched for `core` may have ended.
    pub fn refusal_ended(&self, core: usize) -> bool {
        self.refusal_ended[core]
    }

    /// Stop watching `core`.
    pub fn unwatch(&mut self, core: usize) {
        self.refusal_watch[core] = None;
        self.refusal_ended[core] = false;
    }

    /// `line` entered the LLC: every refusal watched on it has ended.
    fn entered_llc(&mut self, line: u64) {
        for (watch, ended) in self.refusal_watch.iter().zip(&mut self.refusal_ended) {
            if *watch == Some(line) {
                *ended = true;
            }
        }
    }

    /// Release `core`'s MSHR for `line`: a refusal watched for `core` may
    /// have ended.
    fn release_mshr(&mut self, core: usize, line: u64) {
        self.mshr[core].release(line);
        if self.refusal_watch[core].is_some() {
            self.refusal_ended[core] = true;
        }
    }

    /// Functionally warm the arrays with one access; see
    /// [`PrefillState::prefill_access`]. Call [`Hierarchy::finish_prefill`]
    /// when done.
    #[inline]
    pub fn prefill_access(&mut self, core: u32, line: u64, is_write: bool) {
        self.arrays.prefill_access(core, line, is_write);
    }

    /// Functionally warm the arrays with a stream of accesses; see
    /// [`PrefillState::walk`]. Call [`Hierarchy::finish_prefill`] when done.
    pub fn prefill_walk<R>(&mut self, feed: impl FnOnce(&mut PrefillWalk<'_>) -> R) -> R {
        self.arrays.walk(feed)
    }

    /// A copy of the cache arrays.
    ///
    /// The arrays' contents depend only on the access streams and the
    /// array geometry — not on the memory backend or timing configuration —
    /// so one warmed state serves every memory system a workload is swept
    /// over. Importing it produces exactly the arrays it was taken from,
    /// recency order included, so simulation results are bit-identical.
    pub fn export_prefill_state(&self) -> PrefillState {
        self.arrays.clone()
    }

    /// Copy a warmed state into the arrays. Returns `false`, changing
    /// nothing, unless `state` fits this hierarchy's geometry (see
    /// [`PrefillState::fits`]). The simulation drivers build around the
    /// state instead; this copy serves `perf/`'s replica and the tests.
    pub fn import_prefill_state(&mut self, state: &PrefillState) -> bool {
        if !state.fits(&self.cfg.geometry) {
            return false;
        }
        self.arrays.l1.clone_from(&state.l1);
        self.arrays.l2.clone_from(&state.l2);
        self.arrays.llc.clone_from(&state.llc);
        true
    }

    /// See [`PrefillState::prefill_prefetch`].
    #[inline]
    pub fn prefill_prefetch(&self, core: u32, line: u64) {
        self.arrays.prefill_prefetch(core, line);
    }

    /// Clear the arrays' demand hit/miss counters, which an imported state
    /// or an earlier detailed interval may carry, before the timed run.
    pub fn finish_prefill(&mut self) {
        self.arrays.reset_stats();
    }

    /// Advance one cycle. Call once per cycle *before* the cores issue.
    pub fn tick(&mut self, now: Cycle) {
        if T::ENABLED {
            // Flush completed bandwidth epochs. Epochs are absolute (the
            // sample timestamp is the epoch *start*, not `now`), so an
            // event-driven run that skips quiescent cycles emits the same
            // counter samples as a lockstep run — skipped epochs flush in
            // order on the next tick, and quiescent epochs flush as zeros.
            while now >= self.bw_epoch_start + BW_EPOCH {
                let start = self.bw_epoch_start;
                self.tel.on_counter(CounterEvent {
                    name: "mem_read_bytes",
                    cat: "mem",
                    pid: trace_pid::MEM_BW,
                    ts: start,
                    value: self.bw_read_bytes,
                });
                self.tel.on_counter(CounterEvent {
                    name: "mem_write_bytes",
                    cat: "mem",
                    pid: trace_pid::MEM_BW,
                    ts: start,
                    value: self.bw_write_bytes,
                });
                self.bw_read_bytes = 0;
                self.bw_write_bytes = 0;
                self.bw_epoch_start = start + BW_EPOCH;
            }
        }

        // 1. Fire memory-issue events that are due.
        while let Some(&Reverse(ev)) = self.issue_events.peek() {
            if ev.at > now {
                break;
            }
            self.issue_events.pop();
            self.issue_queue.push_back(ev.txn);
        }

        // 2. Drain the issue queue into the backend (demand reads), then
        // writebacks (reads prioritized, as real controllers do).
        while let Some(&txn_id) = self.issue_queue.front() {
            let line = self.txns[txn_id as usize].as_ref().expect("live").line;
            let req = MemRequest::read(u64::from(txn_id), line, now);
            match self.backend.try_enqueue(req) {
                Ok(()) => {
                    let txn = self.txns[txn_id as usize].as_mut().expect("live");
                    txn.mem_enqueued_at = Some(now);
                    self.stats.mem_reads += 1;
                    if T::ENABLED {
                        self.bw_read_bytes += 64;
                    }
                    if txn.drop_mem {
                        self.stats.wasted_mem_reads += 1;
                    }
                    self.issue_queue.pop_front();
                }
                Err(_) => break,
            }
        }
        while let Some(&line) = self.writeback_queue.front() {
            let req = MemRequest::write(self.next_write_id, line, now);
            match self.backend.try_enqueue(req) {
                Ok(()) => {
                    self.next_write_id += 1;
                    self.stats.mem_writes += 1;
                    if T::ENABLED {
                        self.bw_write_bytes += 64;
                    }
                    self.writeback_queue.pop_front();
                }
                Err(_) => break,
            }
        }

        // 3. Tick the backend and harvest responses.
        self.backend.tick(now);
        while let Some(resp) = self.backend.pop_response(now) {
            if resp.is_write {
                continue; // writeback ack: nothing waits on it
            }
            // A read's id is its transaction slot, live until this response.
            let txn_id = coaxial_sim::small_u32_u64(resp.id);
            let txn = self.txns[txn_id as usize].as_mut().expect("live txn");
            if txn.drop_mem {
                // Stale data for an LLC-hit CALM access: drop and free.
                self.txns[txn_id as usize] = None;
                self.free_txns.push(txn_id);
                continue;
            }
            txn.resp_breakdown = Some((resp.queue_cycles, resp.service_cycles, resp.cxl_cycles));
            // Data still crosses the NoC from the MC to the core, and a CALM
            // access must additionally wait for the LLC's (miss) response.
            let (line, core, calm, llc_result_at) =
                (txn.line, txn.core as usize, txn.calm, txn.llc_result_at);
            let mc = self.mc_of(line);
            let arrival = resp.completed_at + self.mesh.tile_to_mc(core, mc);
            if T::ENABLED {
                self.txns[txn_id as usize].as_mut().expect("live txn").mem_arrival = Some(arrival);
            }
            let ready = if calm { arrival.max(llc_result_at) } else { arrival };
            self.finish_events.push(Reverse(Finish { at: ready, txn: txn_id }));
        }

        // 4. Deliver finished transactions.
        while let Some(&Reverse(f)) = self.finish_events.peek() {
            if f.at > now {
                break;
            }
            self.finish_events.pop();
            self.complete_txn(f.txn, f.at);
        }
    }

    /// Finish a memory-bound transaction: fill caches, deliver waiters,
    /// record the latency breakdown.
    fn complete_txn(&mut self, txn_id: u32, at: Cycle) {
        let txn = self.txns[txn_id as usize].take().expect("live txn");
        self.free_txns.push(txn_id);
        let c = txn.core as usize;

        if txn.prefetch {
            // Speculative fill: LLC + L2 only, no waiters, and excluded
            // from the demand latency breakdown.
            self.fill_llc_clean(txn.line);
            self.fill_l2(c, txn.line, false);
            self.release_mshr(c, txn.line);
            self.prefetched_lines.insert(txn.line);
            if self.prefetched_lines.len() > 1 << 20 {
                self.prefetched_lines.clear(); // bound the tracking set
            }
            return;
        }

        // Fills: LLC (clean copy), then L2/L1 (dirty if a store waits).
        self.fill_llc_clean(txn.line);
        self.fill_l2(c, txn.line, txn.wants_dirty);
        self.fill_l1(c, txn.line, txn.wants_dirty);

        self.release_mshr(c, txn.line);
        for w in &txn.waiters {
            self.completed.push_back((txn.core, *w));
        }

        // Latency breakdown (see module docs).
        let (rq, rs, rc) = txn.resp_breakdown.expect("memory response received");
        let enq = txn.mem_enqueued_at.expect("enqueued");
        let total = at - txn.t_l2_miss;
        let queue = rq + (enq - txn.mem_issue_desired);
        let onchip = total.saturating_sub(queue + rs + rc);
        self.stats.onchip_cycles += onchip;
        self.stats.queue_cycles += queue;
        self.stats.service_cycles += rs;
        self.stats.cxl_cycles += rc;
        self.stats.l2_miss_latency.record(total);

        if T::ENABLED {
            // Fine-grained attribution: recompute the deterministic NoC/LLC
            // path components from the mesh (they are not stored in the Txn,
            // keeping the telemetry-off layout untouched):
            //   serial: noc = to-bank + bank→MC + MC→core,  llc = bank hit
            //   CALM:   noc = core→MC + MC→core (no LLC on the memory path)
            // `overlap` is measured directly as completion minus data
            // arrival — the CALM wait-for-LLC overhang, 0 when serial — and
            // the queue component is the backend residency on the
            // *hierarchy's* clock net of service and link (the backend's own
            // `rq` is stamped one cycle earlier, at `issued_at - 1`),
            // so the components sum exactly to the end-to-end latency.
            let mc = self.mc_of(txn.line);
            let core_mc = self.mesh.tile_to_mc(c, mc);
            let (noc, llc) = if txn.calm {
                (2 * core_mc, 0)
            } else {
                let bank = self.llc_bank(txn.line);
                (
                    self.mesh.tile_to_tile(c, bank) + self.mesh.tile_to_mc(bank, mc) + core_mc,
                    self.cfg.llc_latency,
                )
            };
            let overlap = at - txn.mem_arrival.unwrap_or(at);
            let issue_wait = enq - txn.mem_issue_desired;
            let dram_queue = total.saturating_sub(noc + llc + issue_wait + rs + rc + overlap);
            self.tel.on_miss(&MissRecord {
                core: txn.core,
                line: txn.line,
                channel: coaxial_sim::small_u32(mc),
                calm: txn.calm,
                llc_hit: false,
                t_l2_miss: txn.t_l2_miss,
                t_done: at,
                noc,
                llc,
                issue_wait,
                dram_queue,
                dram_service: rs,
                cxl_link: rc,
            });
            self.tel.on_span(TraceEvent {
                name: "l2_miss",
                cat: "mem",
                pid: trace_pid::CORE,
                tid: txn.core,
                start: txn.t_l2_miss,
                dur: total,
                line: txn.line,
            });
            // Backend residency on the channel lane (rq + rs + rc spans
            // enqueue → data completion; the return NoC hop follows).
            self.tel.on_span(TraceEvent {
                name: "mem",
                cat: "mem",
                pid: trace_pid::MEM_CHANNEL_BASE + coaxial_sim::small_u32(mc),
                tid: txn.core,
                start: enq,
                dur: rq + rs + rc,
                line: txn.line,
            });
        }
    }

    /// Pop one completion: `(core, token)` of a pending access.
    pub fn pop_completion(&mut self) -> Option<(u32, AccessId)> {
        self.completed.pop_front()
    }

    /// Earliest future cycle at which ticking the hierarchy could do
    /// observable work, assuming no new accesses are issued and `completed`
    /// has been drained: the earliest pending issue/finish event or backend
    /// activity. Any undrained queue pins the bound to `now + 1`.
    pub fn next_event(&self, now: Cycle) -> Cycle {
        if !self.completed.is_empty()
            || !self.issue_queue.is_empty()
            || !self.writeback_queue.is_empty()
        {
            return now + 1;
        }
        let mut next = self.backend.next_event(now);
        if let Some(&Reverse(ev)) = self.issue_events.peek() {
            next = next.min(ev.at.max(now + 1));
        }
        if let Some(&Reverse(f)) = self.finish_events.peek() {
            next = next.min(f.at.max(now + 1));
        }
        next
    }

    /// Harvest statistics (L1/L2 ratios computed at call time).
    pub fn stats(&self) -> HierStats {
        let mut st = self.stats.clone();
        let (mut h1, mut m1, mut h2, mut m2) = (0u64, 0u64, 0u64, 0u64);
        for (l1, l2) in self.arrays.l1.iter().zip(&self.arrays.l2) {
            h1 += l1.hits;
            m1 += l1.misses;
            h2 += l2.hits;
            m2 += l2.misses;
        }
        st.l1_hit_ratio = if h1 + m1 == 0 { 0.0 } else { h1 as f64 / (h1 + m1) as f64 };
        st.l2_hit_ratio = if h2 + m2 == 0 { 0.0 } else { h2 as f64 / (h2 + m2) as f64 };
        st.calm = self.calm.stats;
        st.prefetch = self.pf_stats;
        st
    }

    /// Zero statistics at the end of warmup; cache contents, in-flight
    /// transactions, and backend timing state are preserved.
    pub fn reset_stats(&mut self, now: Cycle) {
        self.stats = HierStats::default();
        self.arrays.reset_stats();
        self.calm.reset_stats();
        self.pf_stats = PrefetchStats::default();
        self.backend.reset_stats(now);
        if T::ENABLED {
            self.tel.on_reset();
        }
    }

    /// Functional check used by tests: is this line present anywhere
    /// on-chip for `core`?
    pub fn probe_on_chip(&self, core: usize, line: u64) -> bool {
        self.arrays.l1[core].peek(line)
            || self.arrays.l2[core].peek(line)
            || self.arrays.llc[self.llc_bank(line)].peek(line)
    }

    /// See [`PrefillState::occupancy`].
    pub fn occupancy(&self) -> [(usize, usize); 3] {
        self.arrays.occupancy()
    }

    /// Number of in-flight memory-bound transactions (test/debug aid).
    pub fn inflight_txns(&self) -> usize {
        self.txns.iter().filter(|t| t.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coaxial_dram::{DramConfig, MultiChannel};

    /// A Table III hierarchy over one DDR channel, `edit`ed.
    fn hier(cores: usize, edit: impl FnOnce(&mut HierarchyConfig)) -> Hierarchy<MultiChannel> {
        let mut cfg = HierarchyConfig::table_iii(cores, 1, 2.0, 38.4, CalmPolicy::Serial);
        edit(&mut cfg);
        Hierarchy::new(cfg, MultiChannel::new(&DramConfig::ddr5_4800(), 1))
    }

    /// A decoded `.ckpt` state that does not fit array for array is
    /// refused and changes nothing: another core count (which used to
    /// panic) or another L2 size (which used to import silently).
    #[test]
    fn prefill_import_refuses_other_geometries() {
        let mut two = hier(2, |_| {});
        two.prefill_access(0, 0x40, true);
        let half_l2 = hier(4, |c| c.geometry.l2_bytes = 256 * 1024);
        let mut four = hier(4, |_| {});
        four.prefill_access(1, 0x80, false);
        let before = four.occupancy();
        assert!(!four.import_prefill_state(&two.export_prefill_state()), "2 cores into 4");
        assert!(!four.import_prefill_state(&half_l2.export_prefill_state()), "256 KiB L2 into 512");
        assert_eq!(four.occupancy(), before, "a refused import changes nothing");
        assert!(four.import_prefill_state(&hier(4, |_| {}).export_prefill_state()));
        assert_eq!(four.occupancy(), [(0, 0); 3]);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn the_constructor_refuses_arrays_of_another_geometry() {
        let (four, two) = (hier(4, |_| {}), hier(2, |_| {}));
        let _ = Hierarchy::with_telemetry(four.cfg, four.backend, NullTelemetry, two.arrays);
    }

    /// Seeded corruptions of an encoded prefill state: decoding never
    /// panics, decodes more ways than the bytes hold, or yields an array
    /// holding one line twice, and importing what decodes never panics.
    #[test]
    fn seeded_fuzz_of_prefill_state_decode_and_import() {
        use coaxial_sim::Snapshot;
        let small = |c: &mut HierarchyConfig| {
            let g = &mut c.geometry;
            (g.l1_bytes, g.l2_bytes, g.llc_bytes_per_core) = (1024, 4096, 8192);
        };
        let mut warm = hier(2, small);
        for line in 0..300u64 {
            warm.prefill_access(u32::from(line % 2 == 0), line * 7, line % 3 == 0);
        }
        let mut raw = Vec::new();
        warm.export_prefill_state().encode(&mut raw);
        let mut rng = coaxial_sim::SplitMix64::new(0x57A7E);
        let (mut decoded, mut imported) = (0, 0);
        for _ in 0..400 {
            let bad = rng.corrupt(&raw);
            let Some(state) = PrefillState::decode(&bad) else { continue };
            assert!(state.approx_bytes() <= bad.len() as u64 * 17 / 16, "decoded past the input");
            for a in state.l1.iter().chain(&state.l2).chain(&state.llc) {
                let lines: BTreeSet<u64> = a.resident_lines().collect();
                assert_eq!(lines.len(), a.valid_count(), "a decoded array holds a line twice");
            }
            decoded += 1;
            imported += usize::from(hier(2, small).import_prefill_state(&state));
        }
        assert!(decoded > 0 && imported > 0, "the fuzzer must reach decode and import");
    }

    /// Seeded random accesses of `core`: half to lines every core shares,
    /// half to the core's own, each from a `span`-line footprint scattered
    /// over 2^24 lines (so it spreads over every LLC bank's sets), and a
    /// third of them stores.
    fn stream(core: u32, span: u64) -> impl FnMut() -> (u64, bool) {
        let mut rng = coaxial_sim::SplitMix64::new(0x5EED ^ u64::from(core) << 8);
        move || {
            let region = if rng.chance(0.5) { 0 } else { u64::from(core + 1) << 32 };
            let line = rng.next_below(span).wrapping_mul(0x2545_F491) & 0xFF_FFFF;
            (region | line, rng.next_below(3) == 0)
        }
    }

    /// The two ways to warm arrays: one access at a time, or a walk.
    trait Warm {
        fn access(&mut self, core: u32, line: u64, is_write: bool);
        fn llc_valid(&mut self) -> usize;
    }

    impl Warm for PrefillState {
        fn access(&mut self, core: u32, line: u64, is_write: bool) {
            self.prefill_access(core, line, is_write);
        }
        fn llc_valid(&mut self) -> usize {
            self.occupancy()[2].0
        }
    }

    impl Warm for PrefillWalk<'_> {
        fn access(&mut self, core: u32, line: u64, is_write: bool) {
            PrefillWalk::access(self, core, line, is_write);
        }
        fn llc_valid(&mut self) -> usize {
            PrefillWalk::llc_valid(self)
        }
    }

    /// Warm with each core's stream in rounds of `round` accesses per core
    /// until `full` LLC lines are valid or eight rounds ran, as
    /// `server::warm` does, then with 1000 more accesses per core and no
    /// count after them, as a sampled fast-forward ends. Returns the LLC's
    /// valid count at each round's end.
    fn drive(
        warm: &mut impl Warm,
        streams: &mut [impl FnMut() -> (u64, bool)],
        round: usize,
        full: usize,
    ) -> Vec<usize> {
        let mut counts = Vec::new();
        for tail in [false, true] {
            while tail || counts.len() < 8 {
                for (core, next) in (0..).zip(streams.iter_mut()) {
                    for _ in 0..if tail { 1000 } else { round } {
                        let (line, is_write) = next();
                        warm.access(core, line, is_write);
                    }
                }
                if tail {
                    break;
                }
                counts.push(warm.llc_valid());
                if counts.last() >= Some(&full) {
                    break;
                }
            }
        }
        counts
    }

    /// [`drive`] on arrays of geometry `g` with `active` cores'
    /// [`stream`]s: through `prefill_access` alone (`walk` is `None`), or
    /// through the two-stage walk with or without its helper thread.
    /// Returns the encoded arrays and the round-end counts.
    fn warmed(
        g: &CacheGeometry,
        active: u32,
        (round, span): (usize, u64),
        walk: Option<bool>,
    ) -> (Vec<u8>, Vec<usize>) {
        use coaxial_sim::Snapshot;
        let mut state = PrefillState::new(g);
        let mut streams: Vec<_> = (0..active).map(|c| stream(c, span)).collect();
        let full = coaxial_sim::idx(g.llc_bytes_per_core / 64) * g.cores * 9 / 10;
        let counts = match walk {
            None => drive(&mut state, &mut streams, round, full),
            Some(helper) => state.walk_on(helper, |w| drive(w, &mut streams, round, full)),
        };
        let mut encoded = Vec::new();
        state.encode(&mut encoded);
        (encoded, counts)
    }

    /// The two-stage walk leaves the arrays `prefill_access` leaves, byte
    /// for byte, and counts the same LLC lines at every round's end, on
    /// its helper thread and inline: one core and twelve, fewer active
    /// cores than cores, rounds that stop early and rounds that never fill
    /// the LLC, and rounds of 5000 accesses per core, so a chunk of 4096
    /// ends inside a core's round.
    #[test]
    fn the_two_stage_walk_equals_prefill_access() {
        let small = |cores| CacheGeometry {
            cores,
            l1_bytes: 4096,
            l1_assoc: 4,
            l2_bytes: 16384,
            l2_assoc: 8,
            llc_bytes_per_core: 32768,
            llc_assoc: 16,
        };
        // (cores, active cores, accesses per core and round, footprint in
        // lines, whether the LLC fills before the eighth round)
        for (cores, active, round, span, stops) in [
            (1, 1, 5000, 4096, true),
            (12, 12, 3000, 16384, true),
            (12, 5, 5000, 16384, true),
            (12, 12, 1000, 64, false),
        ] {
            let g = small(cores);
            let (want, counts) = warmed(&g, active, (round, span), None);
            assert_eq!(counts.len() < 8, stops, "{cores} cores, {active} active: {counts:?}");
            for helper in [true, false] {
                let (got, got_counts) = warmed(&g, active, (round, span), Some(helper));
                assert_eq!(got_counts, counts, "{cores}/{active} cores, helper {helper}");
                assert!(got == want, "{cores}/{active} cores, helper {helper}: arrays differ");
            }
        }
    }

    /// Test driver keeping simulation time monotonic across operations.
    struct Driver {
        h: Hierarchy<MultiChannel>,
        now: Cycle,
        next_token: AccessId,
    }

    impl Driver {
        fn new(calm: CalmPolicy) -> Self {
            let cfg = HierarchyConfig::table_iii(4, 1, 2.0, 38.4, calm);
            let backend = MultiChannel::new(&DramConfig::ddr5_4800(), 1);
            Self { h: Hierarchy::new(cfg, backend), now: 0, next_token: 0 }
        }

        /// Issue an access at the current time under a fresh token,
        /// retrying on MSHR pressure.
        fn access(
            &mut self,
            core: u32,
            line: u64,
            is_write: bool,
            pc: u32,
        ) -> (AccessResult, AccessId) {
            let token = self.next_token;
            self.next_token += 1;
            loop {
                let r = self.h.access(core, line, is_write, pc, self.now, token);
                if r == AccessResult::Retry {
                    self.step(1);
                } else {
                    return (r, token);
                }
            }
        }

        fn step(&mut self, cycles: Cycle) {
            for _ in 0..cycles {
                self.now += 1;
                self.h.tick(self.now);
            }
        }

        /// Run until the given pending accesses complete.
        fn settle(&mut self, mut want: Vec<AccessId>, limit: Cycle) {
            let deadline = self.now + limit;
            while self.now < deadline {
                self.step(1);
                while let Some((_, id)) = self.h.pop_completion() {
                    want.retain(|&w| w != id);
                }
                if want.is_empty() {
                    return;
                }
            }
            panic!("accesses did not settle: {want:?}");
        }
    }

    #[test]
    fn l1_hit_after_memory_fill() {
        let mut d = Driver::new(CalmPolicy::Serial);
        let (AccessResult::Pending, id) = d.access(0, 1000, false, 1) else {
            panic!("first touch must miss")
        };
        d.settle(vec![id], 100_000);
        // Second access is now an L1 hit.
        match d.access(0, 1000, false, 1).0 {
            AccessResult::Done(at) => assert_eq!(at, d.now + 4),
            other => panic!("expected L1 hit, got {other:?}"),
        }
    }

    #[test]
    fn merged_accesses_all_complete() {
        let mut d = Driver::new(CalmPolicy::Serial);
        let (AccessResult::Pending, a) = d.access(0, 77, false, 1) else { panic!() };
        let (AccessResult::Pending, b) = d.access(0, 77, false, 1) else { panic!() };
        let (AccessResult::Pending, c2) = d.access(0, 77, true, 1) else { panic!() };
        d.settle(vec![a, b, c2], 100_000);
        assert_eq!(d.h.inflight_txns(), 0);
        // The store marked the line dirty in L1.
        assert!(d.h.arrays.l1[0].peek_dirty(77));
    }

    #[test]
    fn mshr_full_returns_retry() {
        let mut d = Driver::new(CalmPolicy::Serial);
        let cap = d.h.config().l2_mshrs;
        for i in 0..cap as u64 {
            // Issue without the retry loop so back-pressure is observable.
            let r = d.h.access(0, i * 10_000, false, 1, d.now, i);
            assert_eq!(r, AccessResult::Pending, "alloc {i}");
        }
        let r = d.h.access(0, 999_999, false, 1, d.now, cap as u64);
        assert_eq!(r, AccessResult::Retry);
    }

    #[test]
    fn llc_hit_is_served_on_chip() {
        let mut d = Driver::new(CalmPolicy::Serial);
        let (AccessResult::Pending, id) = d.access(0, 5, false, 1) else { panic!() };
        d.settle(vec![id], 100_000);
        // Evict line 5 from L1/L2 by walking a large distinct region; the
        // LLC (8 MB per core here) retains everything.
        let mut pend = Vec::new();
        for i in 0..20_000u64 {
            if let (AccessResult::Pending, p) = d.access(0, 1_000_000 + i, false, 1) {
                pend.push(p);
            }
            if pend.len() >= 12 {
                d.settle(std::mem::take(&mut pend), 1_000_000);
            }
        }
        d.settle(pend, 10_000_000);
        assert!(!d.h.arrays.l1[0].peek(5) && !d.h.arrays.l2[0].peek(5), "evicted from L1 and L2");
        let bank = d.h.llc_bank(5);
        assert!(d.h.arrays.llc[bank].peek(5), "LLC retains the line");
        // Next access: LLC hit, completes on-chip with deterministic latency.
        let before = d.h.stats().llc_hits;
        match d.access(0, 5, false, 1).0 {
            AccessResult::Done(at) => assert!(at > d.now),
            other => panic!("expected on-chip completion, got {other:?}"),
        }
        assert_eq!(d.h.stats().llc_hits, before + 1);
    }

    #[test]
    fn calm_ideal_is_never_slower_than_serial() {
        // Same random access pattern through both policies.
        let run = |calm: CalmPolicy| -> f64 {
            let mut d = Driver::new(calm);
            let mut rng = coaxial_sim::SplitMix64::new(7);
            let mut pending = Vec::new();
            for _ in 0..400 {
                let line = rng.next_below(1 << 22);
                if let (AccessResult::Pending, id) = d.access(0, line, false, 1) {
                    pending.push(id);
                }
                d.step(30);
            }
            d.settle(pending, 10_000_000);
            d.h.stats().mean_l2_miss_latency_cycles()
        };
        let serial = run(CalmPolicy::Serial);
        let ideal = run(CalmPolicy::Ideal);
        assert!(ideal <= serial + 1.0, "ideal CALM {ideal:.1} must not exceed serial {serial:.1}");
    }

    #[test]
    fn breakdown_sums_match_mean_latency() {
        let mut d = Driver::new(CalmPolicy::CalmR { r: 0.7 });
        let mut pending = Vec::new();
        for i in 0..200u64 {
            if let (AccessResult::Pending, id) =
                d.access((i % 4) as u32, i * 997, false, (i % 7) as u32)
            {
                pending.push(id);
            }
            d.step(3);
        }
        d.settle(pending, 10_000_000);
        let st = d.h.stats();
        assert!(st.l2_misses > 0);
        let mean = st.mean_l2_miss_latency_cycles();
        let hist_mean = st.l2_miss_latency.mean();
        assert!(
            (mean - hist_mean).abs() < 2.0,
            "component mean {mean:.1} vs histogram mean {hist_mean:.1}"
        );
    }

    #[test]
    fn dirty_lines_eventually_write_back_to_memory() {
        let mut d = Driver::new(CalmPolicy::Serial);
        let mut pending = Vec::new();
        for i in 0..60_000u64 {
            if let (AccessResult::Pending, id) = d.access(0, i, true, 1) {
                pending.push(id);
            }
            if pending.len() >= 12 {
                d.settle(std::mem::take(&mut pending), 1_000_000);
            }
            d.step(1);
        }
        d.settle(pending, 50_000_000);
        let st = d.h.stats();
        assert!(st.mem_writes > 0, "dirty evictions must reach memory");
    }

    #[test]
    fn calm_false_positive_drops_memory_data() {
        let mut d = Driver::new(CalmPolicy::CalmR { r: 0.7 });
        // Load a line (goes to memory, fills LLC/L2/L1).
        let (AccessResult::Pending, id) = d.access(0, 42, false, 1) else { panic!() };
        d.settle(vec![id], 100_000);
        // Evict from L1/L2 only: L2 has 1024 sets → stride 1024 lines
        // aliases the same L2 set (and the same L1 set, 64 sets).
        let mut pend = Vec::new();
        for i in 1..=9u64 {
            if let (AccessResult::Pending, p) = d.access(0, 42 + i * 1024, false, 2) {
                pend.push(p);
            }
        }
        d.settle(pend, 10_000_000);
        assert!(!d.h.arrays.l2[0].peek(42), "line evicted from L2");
        let wasted_before = d.h.stats().wasted_mem_reads;
        // Access again: L2 miss, LLC hit; CALM probability is ~1 (idle).
        let (r, _) = d.access(0, 42, false, 3);
        assert!(matches!(r, AccessResult::Done(_)), "LLC hit completes on-chip");
        // Let the wasted fetch drain.
        d.step(200_000);
        let st = d.h.stats();
        assert!(st.wasted_mem_reads > wasted_before, "dropped CALM fetch counted");
        assert_eq!(d.h.inflight_txns(), 0, "zombie freed after response");
    }

    #[test]
    fn reset_stats_clears_counts_but_keeps_contents() {
        let mut d = Driver::new(CalmPolicy::Serial);
        let (AccessResult::Pending, id) = d.access(0, 9, false, 1) else { panic!() };
        d.settle(vec![id], 100_000);
        assert!(d.h.stats().l2_misses > 0);
        let now = d.now;
        d.h.reset_stats(now);
        assert_eq!(d.h.stats().l2_misses, 0);
        assert!(d.h.probe_on_chip(0, 9), "contents preserved across reset");
    }

    /// The watch on a parked core's refused access ends on each event that
    /// can end the refusal, and on no other. With one L2 MSHR, core 0's
    /// fetch of line A leaves its access to line B refused; the watch on B
    /// must end while A is still outstanding when B enters the LLC, (i) as
    /// core 1's fetch of B fills it or (ii) as core 1's dirty copy of B
    /// spills from its L2, and (iii) it must end on a release of core 0's
    /// MSHR but not of core 1's.
    #[test]
    fn refusal_watch_ends_on_a_release_or_an_llc_insert() {
        const A: u64 = 0x1000;
        const B: u64 = 0x2000;
        let one_mshr = || Driver { h: hier(2, |c| c.l2_mshrs = 1), now: 0, next_token: 0 };
        // Core 0's one MSHR holds A; its access to B is refused and watched.
        let refuse_b = |d: &mut Driver| {
            assert_eq!(d.h.access(0, A, false, 1, d.now, 100), AccessResult::Pending);
            assert_eq!(d.h.access(0, B, false, 1, d.now, 101), AccessResult::Retry);
            assert!(d.h.refuses(0, B));
            d.h.watch_refused(0, B);
        };
        // Step until the next completions; each with the flag seen then.
        let next_done = |d: &mut Driver| {
            for _ in 0..100_000 {
                d.step(1);
                let done: Vec<_> = std::iter::from_fn(|| d.h.pop_completion()).collect();
                if !done.is_empty() {
                    return (done, d.h.refusal_ended(0));
                }
                assert!(!d.h.refusal_ended(0), "cycle {}: nothing ended the refusal", d.now);
            }
            panic!("no completion within 100k cycles");
        };

        // (i) Core 1 fetches B, issued well ahead of A.
        let mut d = one_mshr();
        let (AccessResult::Pending, b) = d.access(1, B, false, 1) else { panic!("B misses") };
        d.step(50);
        refuse_b(&mut d);
        assert_eq!(next_done(&mut d), (vec![(1, b)], true), "core 1's fill of B");
        assert!(d.h.mshr[0].lookup(A).is_some(), "A is still outstanding");
        assert!(!d.h.refuses(0, B), "B is in the LLC");

        // (ii) Core 1 holds B dirty as the LRU line of its L2 set, and an
        // LLC hit on X, which maps to that set, pushes B down.
        let mut d = one_mshr();
        let sets = d.h.arrays.l2[1].num_sets();
        d.h.arrays.l2[1].fill(B, true);
        for k in 1..8 {
            d.h.arrays.l2[1].fill(B + k * sets, false);
        }
        let x = B + 8 * sets;
        fill_llc(&mut d.h.arrays.llc, x, false);
        refuse_b(&mut d);
        assert!(matches!(d.h.access(1, x, false, 1, d.now, 102), AccessResult::Done(_)));
        assert!(d.h.refusal_ended(0), "core 1's spill of B");
        assert!(d.h.mshr[0].lookup(A).is_some(), "A is still outstanding");
        assert!(!d.h.refuses(0, B), "B is in the LLC");

        // (iii) Core 1's fetch of another line completes first: its
        // release and its fill leave the watch standing; A's release ends it.
        let mut d = one_mshr();
        let (AccessResult::Pending, c) = d.access(1, 0x3000, false, 1) else { panic!("misses") };
        d.step(50);
        refuse_b(&mut d);
        assert_eq!(next_done(&mut d), (vec![(1, c)], false), "core 1's release");
        assert!(d.h.refuses(0, B));
        assert_eq!(next_done(&mut d), (vec![(0, 100)], true), "core 0's release of A");
    }

    #[test]
    fn per_core_caches_are_private() {
        let mut d = Driver::new(CalmPolicy::Serial);
        let (AccessResult::Pending, id) = d.access(0, 123, false, 1) else { panic!() };
        d.settle(vec![id], 100_000);
        assert!(d.h.arrays.l1[0].peek(123));
        assert!(!d.h.arrays.l1[1].peek(123), "core 1's L1 must not see core 0's fill");
        // Core 1 hits in the shared LLC, though.
        let bank = d.h.llc_bank(123);
        assert!(d.h.arrays.llc[bank].peek(123));
    }
}
