//! The out-of-order core: dispatch, issue, and in-order retire against a
//! bounded ROB.
//!
//! The core is driven by the system loop:
//!
//! ```text
//! loop {
//!     hierarchy.tick(now);
//!     while let Some((core, id)) = hierarchy.pop_completion() {
//!         cores[core].on_memory_complete(id);
//!     }
//!     for core in &mut cores { core.tick(now, &mut hierarchy); }
//!     now += 1;
//! }
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use coaxial_cache::hierarchy::AccessResult;
use coaxial_cache::{AccessId, Hierarchy};
use coaxial_dram::MemoryBackend;
use coaxial_sim::Cycle;
use coaxial_telemetry::TelemetrySink;

use crate::trace::{MemKind, TraceSource};

/// Microarchitectural parameters (paper Table III defaults).
#[derive(Debug, Clone, Copy)]
pub struct CoreParams {
    /// Front-end / retire width, instructions per cycle.
    pub width: u32,
    /// Reorder-buffer capacity, instructions.
    pub rob_size: u32,
    /// Memory operations that may issue to the L1 per cycle.
    pub issue_width: u32,
    /// How deep into the waiting-op window the issue logic looks.
    pub issue_window: usize,
}

impl Default for CoreParams {
    fn default() -> Self {
        Self { width: 4, rob_size: 256, issue_width: 2, issue_window: 16 }
    }
}

/// One ROB entry: either a batch of ordinary instructions (which complete
/// at dispatch) or a single memory instruction.
#[derive(Debug)]
enum Entry {
    NonMem { remaining: u32 },
    Mem { done: bool },
}

/// A memory op waiting to issue.
#[derive(Debug, Clone, Copy)]
struct WaitingOp {
    /// Sequence number of this op's ROB entry.
    seq: u64,
    line: u64,
    pc: u32,
    is_store: bool,
    /// Entry seq of the load this op depends on, if any.
    dep: Option<u64>,
}

/// The core.
pub struct Core {
    id: u32,
    params: CoreParams,
    trace: Box<dyn TraceSource>,

    rob: VecDeque<Entry>,
    /// Sequence number of the ROB head entry.
    head_seq: u64,
    /// Instructions currently occupying the ROB.
    rob_instrs: u32,
    /// Seq of the most recently dispatched load (dependency target).
    last_load_seq: Option<u64>,
    /// Trace op currently being dispatched (gap partially consumed).
    staged: Option<(u32, crate::trace::TraceOp)>,

    waiting: VecDeque<WaitingOp>,
    /// Deterministic-latency completions (cache hits) scheduled ahead.
    scheduled: BinaryHeap<Reverse<(Cycle, u64)>>,
    /// Outstanding hierarchy accesses → entry seq.
    /// Keyed lookup only — never iterated (clippy.toml disallowed-methods).
    outstanding: HashMap<AccessId, u64>,

    /// Retired instructions since the last stats reset.
    pub retired: u64,
    /// Cycles observed since the last stats reset.
    pub cycles: Cycle,
    /// Loads issued / stores issued (traffic accounting).
    pub loads_issued: u64,
    pub stores_issued: u64,
    /// Cycles where retirement was completely blocked by a pending load.
    pub stall_cycles: u64,
    /// Sum of ROB occupancy (instructions) over every observed cycle;
    /// divide by `cycles` for mean occupancy. Saturation here is the
    /// paper's signature of CXL-latency-bound cores (ROB fills, MLP caps).
    pub rob_occupancy_cum: u64,
    /// Cycles where the issue stage moved nothing despite having waiting
    /// memory ops (dependence- or back-pressure-bound).
    pub issue_stall_cycles: u64,
}

impl Core {
    pub fn new(id: u32, params: CoreParams, trace: Box<dyn TraceSource>) -> Self {
        Self {
            id,
            params,
            trace,
            rob: VecDeque::new(),
            head_seq: 0,
            rob_instrs: 0,
            last_load_seq: None,
            staged: None,
            waiting: VecDeque::new(),
            scheduled: BinaryHeap::new(),
            outstanding: HashMap::new(),
            retired: 0,
            cycles: 0,
            loads_issued: 0,
            stores_issued: 0,
            stall_cycles: 0,
            rob_occupancy_cum: 0,
            issue_stall_cycles: 0,
        }
    }

    pub fn id(&self) -> u32 {
        self.id
    }

    /// IPC over the current measurement window.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Zero the measurement counters (end of warmup).
    pub fn reset_stats(&mut self) {
        self.retired = 0;
        self.cycles = 0;
        self.loads_issued = 0;
        self.stores_issued = 0;
        self.stall_cycles = 0;
        self.rob_occupancy_cum = 0;
        self.issue_stall_cycles = 0;
    }

    /// Consume the core and hand back its trace source so the workload
    /// stream can continue past this measurement interval (SMARTS-style
    /// interval sampling: the next fast-forward span picks up exactly where
    /// the detailed core stopped fetching).
    ///
    /// Any in-flight pipeline contents (ROB entries, a partially dispatched
    /// `staged` op, waiting/outstanding accesses) are deliberately dropped —
    /// the sampling driver re-warms pipeline state at the start of the next
    /// detailed interval, and dropping is deterministic, so sampled runs
    /// stay byte-identical for a given seed.
    pub fn into_trace(self) -> Box<dyn TraceSource> {
        self.trace
    }

    /// Is the entry with `seq` complete (or already retired)?
    #[inline]
    fn entry_done(&self, seq: u64) -> bool {
        if seq < self.head_seq {
            return true;
        }
        match self.rob.get(coaxial_sim::idx(seq - self.head_seq)) {
            Some(Entry::Mem { done, .. }) => *done,
            Some(Entry::NonMem { .. }) | None => true,
        }
    }

    #[inline]
    fn mark_done(&mut self, seq: u64) {
        if seq < self.head_seq {
            return; // already retired (e.g. a store)
        }
        if let Some(Entry::Mem { done, .. }) =
            self.rob.get_mut(coaxial_sim::idx(seq - self.head_seq))
        {
            *done = true;
        }
    }

    /// Notification from the hierarchy that a pending access finished.
    pub fn on_memory_complete(&mut self, access: AccessId) {
        if let Some(seq) = self.outstanding.remove(&access) {
            self.mark_done(seq);
        }
    }

    /// Advance one cycle against the shared hierarchy.
    pub fn tick<B: MemoryBackend, T: TelemetrySink>(
        &mut self,
        now: Cycle,
        hierarchy: &mut Hierarchy<B, T>,
    ) {
        self.cycles += 1;

        // 0. Deterministic-latency completions that are due.
        while let Some(&Reverse((at, seq))) = self.scheduled.peek() {
            if at > now {
                break;
            }
            self.scheduled.pop();
            self.mark_done(seq);
        }

        // 1. Retire up to `width` instructions in order.
        let mut budget = self.params.width;
        let mut blocked_by_mem = false;
        while budget > 0 {
            match self.rob.front_mut() {
                Some(Entry::NonMem { remaining }) => {
                    let k = budget.min(*remaining);
                    *remaining -= k;
                    budget -= k;
                    self.retired += k as u64;
                    self.rob_instrs -= k;
                    if *remaining == 0 {
                        self.rob.pop_front();
                        self.head_seq += 1;
                    }
                }
                Some(Entry::Mem { done: true, .. }) => {
                    self.rob.pop_front();
                    self.head_seq += 1;
                    self.rob_instrs -= 1;
                    self.retired += 1;
                    budget -= 1;
                }
                Some(Entry::Mem { done: false, .. }) => {
                    blocked_by_mem = true;
                    break;
                }
                None => break,
            }
        }
        if blocked_by_mem && budget == self.params.width {
            self.stall_cycles += 1;
        }

        // 2. Dispatch up to `width` instructions into the ROB.
        let mut budget = self.params.width;
        while budget > 0 && self.rob_instrs < self.params.rob_size {
            let (gap_left, op) = match self.staged.take() {
                Some(s) => s,
                None => {
                    let op = self.trace.next_op();
                    (op.nonmem_before, op)
                }
            };
            if gap_left > 0 {
                let k = gap_left.min(budget).min(self.params.rob_size - self.rob_instrs);
                // Merge with a NonMem tail entry when it is also the head
                // (merging deeper entries would desynchronize head_seq
                // arithmetic), keeping the ROB deque short for long gaps.
                let tail_is_lone_nonmem =
                    self.rob.len() == 1 && matches!(self.rob.back(), Some(Entry::NonMem { .. }));
                if tail_is_lone_nonmem {
                    if let Some(Entry::NonMem { remaining }) = self.rob.back_mut() {
                        *remaining += k;
                    }
                } else {
                    self.rob.push_back(Entry::NonMem { remaining: k });
                }
                self.rob_instrs += k;
                budget -= k;
                if gap_left > k {
                    self.staged = Some((gap_left - k, op));
                    continue;
                }
                self.staged = Some((0, op));
                continue;
            }
            // Dispatch the memory op itself.
            let seq = self.head_seq + self.rob.len() as u64;
            let is_store = op.kind == MemKind::Store;
            let dep = if op.depends_on_last_load { self.last_load_seq } else { None };
            self.rob.push_back(Entry::Mem { done: false });
            self.rob_instrs += 1;
            budget -= 1;
            self.waiting.push_back(WaitingOp { seq, line: op.line_addr, pc: op.pc, is_store, dep });
            if !is_store {
                self.last_load_seq = Some(seq);
            }
        }

        // 3. Issue ready memory ops (out of order, within the window).
        let mut issued = 0;
        let mut i = 0;
        while issued < self.params.issue_width
            && i < self.waiting.len().min(self.params.issue_window)
        {
            let op = self.waiting[i];
            let ready = op.dep.is_none_or(|d| self.entry_done(d));
            if !ready {
                i += 1;
                continue;
            }
            match hierarchy.access(self.id, op.line, op.is_store, op.pc, now) {
                AccessResult::Done(at) => {
                    self.scheduled.push(Reverse((at, op.seq)));
                    self.note_issue(op);
                    self.waiting.remove(i);
                    issued += 1;
                }
                AccessResult::Pending(id) => {
                    // Stores retire via the store buffer (note_issue marks
                    // them done); their background fill completion is mapped
                    // to a sentinel seq that mark_done ignores.
                    let seq = if op.is_store { u64::MAX } else { op.seq };
                    self.outstanding.insert(id, seq);
                    self.note_issue(op);
                    self.waiting.remove(i);
                    issued += 1;
                }
                AccessResult::Retry => break, // back-pressure: stop issuing
            }
        }
        if issued == 0 && !self.waiting.is_empty() {
            self.issue_stall_cycles += 1;
        }

        // 4. Occupancy accounting, sampled at end-of-tick state.
        self.rob_occupancy_cum += u64::from(self.rob_instrs);
    }

    fn note_issue(&mut self, op: WaitingOp) {
        if op.is_store {
            self.stores_issued += 1;
        } else {
            self.loads_issued += 1;
        }
        if op.is_store {
            // A store's ROB entry completes immediately when it issues
            // (store-buffer semantics).
            self.mark_done(op.seq);
        }
    }

    /// If the core is fully blocked — ROB head is an unfinished memory op,
    /// the ROB is full (no dispatch possible), and no waiting op within the
    /// issue window is ready — return the earliest cycle something could
    /// change *from the core's own state* (its next scheduled cache-hit
    /// completion; `Cycle::MAX` if none). Returns `None` when the core could
    /// retire, dispatch, or issue on the next cycle.
    ///
    /// The bound is **exact**, not conservative: while blocked, the core's
    /// state can change only when a due entry pops off `scheduled` (which
    /// happens first at exactly the returned cycle — the ROB-head wakeup
    /// time the event engine parks the core on) or when the hierarchy
    /// delivers a completion via [`Core::on_memory_complete`] (which the
    /// engine observes directly and uses to wake the core early). Blocked
    /// means no issues, so `scheduled` cannot gain entries and the bound
    /// cannot move. The engine debug-asserts this contract: a core woken at
    /// its own bound must change its [`Core::progress_fingerprint`] on the
    /// wake-up tick.
    ///
    /// While blocked, a tick touches only the stall/occupancy counters
    /// (`cycles`, `stall_cycles`, `rob_occupancy_cum`, and — when ops are
    /// waiting — `issue_stall_cycles`), which is exactly what
    /// [`Core::fast_forward`] replays; the pair is what lets both run-loop
    /// engines skip quiescent cycles with bit-identical statistics.
    pub fn next_event(&self) -> Option<Cycle> {
        match self.rob.front() {
            Some(Entry::Mem { done: false }) => {}
            _ => return None, // retirable head or empty ROB
        }
        if self.rob_instrs < self.params.rob_size {
            return None; // dispatch would make progress
        }
        let window = self.waiting.len().min(self.params.issue_window);
        for op in self.waiting.iter().take(window) {
            if op.dep.is_none_or(|d| self.entry_done(d)) {
                return None; // a ready op would issue
            }
        }
        Some(self.scheduled.peek().map_or(Cycle::MAX, |&Reverse((at, _))| at))
    }

    /// Account `skipped` fully-blocked cycles (see [`Core::next_event`]).
    /// Exact replay of the skipped ticks: a fully-blocked tick touches
    /// nothing but the stall/occupancy counters — the ROB is full and
    /// constant, nothing issues, and `waiting` cannot change.
    pub fn fast_forward(&mut self, skipped: u64) {
        self.cycles += skipped;
        self.stall_cycles += skipped;
        self.rob_occupancy_cum += skipped * u64::from(self.rob_instrs);
        if !self.waiting.is_empty() {
            self.issue_stall_cycles += skipped;
        }
    }

    /// Cheap state fingerprint for the engines' stale-bound assertion: any
    /// tick that does more than pure stall accounting (`cycles += 1;
    /// stall_cycles += 1`) changes at least one of these fields. The event
    /// engine asserts (in debug builds) that a core woken at its own
    /// [`Core::next_event`] bound changes its fingerprint on the wake-up
    /// tick — a stale (too-early) bound would otherwise silently degrade
    /// skipping into useless one-cycle hops with no functional symptom.
    pub fn progress_fingerprint(&self) -> (u64, u64, u32, usize, usize, usize) {
        (
            self.retired,
            self.head_seq,
            self.rob_instrs,
            self.waiting.len(),
            self.scheduled.len(),
            self.outstanding.len(),
        )
    }

    /// Outstanding memory accesses (test/debug aid).
    pub fn inflight(&self) -> usize {
        self.outstanding.len()
    }

    /// Instructions currently in the ROB (test/debug aid).
    pub fn rob_occupancy(&self) -> u32 {
        self.rob_instrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceOp, VecTrace};
    use coaxial_cache::{CalmPolicy, HierarchyConfig};
    use coaxial_dram::{DramConfig, MultiChannel};

    fn hierarchy() -> Hierarchy<MultiChannel> {
        let cfg = HierarchyConfig::table_iii(1, 1, 2.0, 38.4, CalmPolicy::Serial);
        Hierarchy::new(cfg, MultiChannel::new(&DramConfig::ddr5_4800(), 1))
    }

    fn run(core: &mut Core, h: &mut Hierarchy<MultiChannel>, target: u64, limit: Cycle) -> Cycle {
        for now in 0..limit {
            h.tick(now);
            while let Some((_, id)) = h.pop_completion() {
                core.on_memory_complete(id);
            }
            core.tick(now, h);
            if core.retired >= target {
                return now;
            }
        }
        panic!("core did not retire {target} instructions in {limit} cycles");
    }

    #[test]
    fn pure_compute_retires_at_full_width() {
        // One load per 4000 instructions, always L1-hot after the first.
        let trace = VecTrace::new(vec![TraceOp::load(3999, 1, 1)]);
        let mut core = Core::new(0, CoreParams::default(), Box::new(trace));
        let mut h = hierarchy();
        let cycles = run(&mut core, &mut h, 40_000, 200_000);
        let ipc = 40_000.0 / cycles as f64;
        assert!(ipc > 3.0, "compute-bound IPC = {ipc:.2} (want ≈ 4)");
    }

    #[test]
    fn dependent_loads_serialize() {
        // Pointer-chase: every load depends on the previous one, and each
        // touches a new line (cold misses to DRAM).
        let ops: Vec<TraceOp> =
            (0..512).map(|i| TraceOp::load(0, i * 1009, 3).dependent()).collect();
        let dep_trace = VecTrace::new(ops.clone());
        let indep_ops: Vec<TraceOp> =
            (0..512).map(|i| TraceOp::load(0, i * 1009 + 500_000, 3)).collect();
        let indep_trace = VecTrace::new(indep_ops);

        let mut c1 = Core::new(0, CoreParams::default(), Box::new(dep_trace));
        let mut h1 = hierarchy();
        let t_dep = run(&mut c1, &mut h1, 400, 10_000_000);

        let mut c2 = Core::new(0, CoreParams::default(), Box::new(indep_trace));
        let mut h2 = hierarchy();
        let t_indep = run(&mut c2, &mut h2, 400, 10_000_000);

        assert!(
            t_dep > t_indep * 3,
            "dependent loads ({t_dep} cycles) must be far slower than independent ({t_indep})"
        );
    }

    #[test]
    fn rob_bounds_mlp() {
        // Independent cold loads: the ROB (256) and MSHRs (16) cap how many
        // can be outstanding; occupancy must never exceed the ROB size.
        let ops: Vec<TraceOp> = (0..4096).map(|i| TraceOp::load(0, i * 4093, 1)).collect();
        let mut core = Core::new(0, CoreParams::default(), Box::new(VecTrace::new(ops)));
        let mut h = hierarchy();
        for now in 0..50_000 {
            h.tick(now);
            while let Some((_, id)) = h.pop_completion() {
                core.on_memory_complete(id);
            }
            core.tick(now, &mut h);
            assert!(core.rob_occupancy() <= 256);
        }
        assert!(core.retired > 0);
    }

    #[test]
    fn stores_do_not_block_retirement() {
        // A stream of cold stores: store-buffer semantics let the core
        // retire far faster than the memory latency would allow.
        let ops: Vec<TraceOp> = (0..2048).map(|i| TraceOp::store(3, i * 997, 2)).collect();
        let mut core = Core::new(0, CoreParams::default(), Box::new(VecTrace::new(ops)));
        let mut h = hierarchy();
        let cycles = run(&mut core, &mut h, 4_000, 1_000_000);
        let ipc = 4_000.0 / cycles as f64;
        // Each cold store still occupies an MSHR for its line fetch, so the
        // stream is bandwidth-bound — but retirement itself never waits the
        // full memory latency. With ~150-cycle misses and 16 MSHRs, a
        // blocking-store core would land near 4/150 ≈ 0.03 IPC.
        assert!(ipc > 0.2, "store-bound IPC = {ipc:.2}, stores must not stall retire");
        assert!(core.stores_issued > 900, "stores issued: {}", core.stores_issued);
    }

    #[test]
    fn ipc_is_deterministic() {
        let mk = || {
            let ops: Vec<TraceOp> = (0..256).map(|i| TraceOp::load(7, i * 131, 1)).collect();
            Core::new(0, CoreParams::default(), Box::new(VecTrace::new(ops)))
        };
        let mut a = mk();
        let mut ha = hierarchy();
        let ta = run(&mut a, &mut ha, 5_000, 10_000_000);
        let mut b = mk();
        let mut hb = hierarchy();
        let tb = run(&mut b, &mut hb, 5_000, 10_000_000);
        assert_eq!(ta, tb, "identical configs must produce identical timing");
    }

    #[test]
    fn reset_stats_zeroes_window() {
        let trace = VecTrace::new(vec![TraceOp::load(99, 1, 1)]);
        let mut core = Core::new(0, CoreParams::default(), Box::new(trace));
        let mut h = hierarchy();
        run(&mut core, &mut h, 1_000, 100_000);
        core.reset_stats();
        assert_eq!(core.retired, 0);
        assert_eq!(core.cycles, 0);
        assert_eq!(core.ipc(), 0.0);
    }
}
