//! Run-loop engines: the per-core event-driven scheduler (default) and the
//! original global lockstep loop (kept as the differential-testing oracle).
//!
//! Both engines simulate the identical machine: the cycles at which the
//! hierarchy ticks, the completions it delivers, and every per-core counter
//! are bit-identical between them (the differential test in
//! `tests/engine_differential.rs` holds this over the full workload
//! registry). They differ only in how much host work a simulated cycle
//! costs:
//!
//! * **Lockstep** ticks every core every visited cycle and can only skip a
//!   span when *all* cores are simultaneously blocked — which the ROADMAP
//!   measured at <2 % of cycles on Table IV workloads, because twelve cores
//!   rarely stall in unison.
//! * **Event** parks each blocked core individually on the exact wakeup
//!   bound from [`Core::next_event`] and replays the parked span in O(1)
//!   via [`Core::fast_forward`] when the core wakes — either at its own
//!   bound or when the hierarchy delivers it a completion. When every core
//!   is parked, the loop jumps exactly as lockstep does, to the least of
//!   the cores' bounds and the hierarchy's `next_event` bound (which
//!   aggregates MSHR/NoC completion times, CXL credit returns, and DRAM
//!   refresh/tFAW windows).
//!
//! The safety of parking a core rests on the [`Core::next_event`] contract:
//! a fully-blocked tick is exactly `cycles += 1; stall_cycles += 1`, it
//! reads nothing from the hierarchy, and the blocked state can end only at
//! the reported bound or at a delivered completion. The event engine
//! debug-asserts the bound half of that contract on every bound-triggered
//! wakeup, so a stale bound fails loudly in tests instead of silently
//! degrading skipping.
//!
//! A core whose only issuable op the hierarchy refuses for want of an MSHR
//! ([`Core::refused_wait`]) parks too: the hierarchy watches the refused
//! line ([`Hierarchy::watch_refused`]) and the core stays out of the tick
//! order until its own bound or until a release of one of its MSHRs or the
//! line's arrival in the LLC may have ended the refusal. It still counts
//! as runnable, so the visited cycles are lockstep's. Debug builds assert
//! [`Hierarchy::refuses`] on every slot such a core sits out.
//!
//! Both kinds follow one wake rule: a core whose bound is due, or whose
//! refusal the hierarchy flags as ended, wakes at its own slot in the tick
//! order, so it sees the hierarchy in lockstep's order within the cycle.
//! Waking replays only the core's own parked span, which reads no shared
//! state, and no bound is ever jumped past: while any core is runnable
//! every cycle is visited, and a jump stops at the least bound.

use coaxial_cache::Hierarchy;
use coaxial_cpu::Core;
use coaxial_dram::MemoryBackend;
use coaxial_sim::Cycle;
use coaxial_telemetry::TelemetrySink;

use crate::config::ConfigError;

/// Which run-loop engine drives the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Per-core event-driven scheduler (the default).
    Event,
    /// The original global tick loop, selectable via
    /// `COAXIAL_ENGINE=lockstep`; the differential-testing oracle.
    Lockstep,
}

/// Check the `COAXIAL_*` knobs a run reads (every numeric one and
/// `COAXIAL_ENGINE`) before anything runs; the error is one line to print.
pub fn check_env() -> Result<(), String> {
    coaxial_sim::env::check_numeric_knobs()?;
    let engine = EngineKind::parse(coaxial_sim::env::engine_name().as_deref());
    engine.map(drop).map_err(|e| format!("COAXIAL_ENGINE: {e}"))
}

impl EngineKind {
    /// Resolve from `COAXIAL_ENGINE` (default: `event`). Panics on an
    /// unknown name; front ends refuse one at startup ([`check_env`]).
    pub fn from_env() -> Self {
        Self::parse(coaxial_sim::env::engine_name().as_deref())
            .unwrap_or_else(|e| panic!("COAXIAL_ENGINE: {e}"))
    }

    /// Map an engine name (any case; `None` = unset) to an engine. An
    /// unknown name is a [`ConfigError::UnknownEngine`], which the gateway
    /// answers with HTTP 400.
    pub fn parse(name: Option<&str>) -> Result<Self, ConfigError> {
        match name.map(str::to_ascii_lowercase).as_deref() {
            None | Some("event") => Ok(Self::Event),
            Some("lockstep") => Ok(Self::Lockstep),
            Some(other) => Err(ConfigError::UnknownEngine(other.to_string())),
        }
    }

    /// Stable lowercase name (diagnostics, bench labels).
    pub fn name(self) -> &'static str {
        match self {
            Self::Event => "event",
            Self::Lockstep => "lockstep",
        }
    }
}

/// Engine counters. The driver exports the first two as `engine.*`
/// registry metrics.
///
/// Both engines report identical skip counters for identical runs:
/// globally quiescent spans are a property of the simulated machine, not
/// of the engine walking it — the differential test relies on this.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineStats {
    /// Cycles jumped over in globally-quiescent spans.
    pub skipped_cycles: u64,
    /// Cycle boundaries at which every core was simultaneously blocked.
    pub blocked_iters: u64,
    /// `Core::tick` calls summed over cores, the host work the engine
    /// spent on cores. It differs between engines by design, so it is a
    /// `COAXIAL_DEBUG` diagnostic and never a registry metric. Only
    /// [`run_event`] counts it; [`run_lockstep`] ticks every core on each
    /// visited cycle, and its caller derives the count from that.
    pub core_ticks: u64,
}

/// Inputs the run loop needs beyond the components themselves.
pub struct RunParams {
    pub warmup: u64,
    pub instructions: u64,
    pub max_cycles: Cycle,
    /// Hot-loop cycle skipping (`COAXIAL_SKIP` / `Simulation::cycle_skip`).
    /// With skipping off, both engines visit every cycle; the event engine
    /// still parks blocked cores individually.
    pub skip: bool,
}

/// What a run loop hands back to report assembly.
pub struct RunOutcome {
    /// Exit cycle (identical between engines for identical runs).
    pub now: Cycle,
    /// Per-core IPC frozen at each core's instruction-budget finish line;
    /// `None` when the run hit `max_cycles` before that core finished.
    pub finish_ipc: Vec<Option<f64>>,
    pub stats: EngineStats,
}

/// Warmup flip and per-core finish checks, evaluated at cycle boundary
/// `now`. Shared verbatim by both engines so the measurement-window
/// semantics cannot drift between them. Only retired-instruction counts are
/// observed, and those cannot change over a skipped (fully-blocked) span —
/// so evaluating at visited cycles only is exact. Returns `true` once every
/// core has hit its instruction budget.
fn window_checks<B: MemoryBackend, T: TelemetrySink>(
    warm: &mut bool,
    finish_ipc: &mut [Option<f64>],
    cores: &mut [Core],
    hierarchy: &mut Hierarchy<B, T>,
    p: &RunParams,
    now: Cycle,
) -> bool {
    if !*warm && cores.iter().all(|c| c.retired >= p.warmup) {
        *warm = true;
        hierarchy.reset_stats(now);
        for c in cores.iter_mut() {
            c.reset_stats();
        }
    }
    if !*warm {
        return false;
    }
    let mut all_done = true;
    for (i, c) in cores.iter().enumerate() {
        if finish_ipc[i].is_none() {
            if c.retired >= p.instructions {
                finish_ipc[i] = Some(c.ipc());
            } else {
                all_done = false;
            }
        }
    }
    all_done
}

/// The original global tick loop: every component ticks every visited
/// cycle; a span is skipped only when every core is blocked at once.
pub fn run_lockstep<B: MemoryBackend, T: TelemetrySink>(
    p: &RunParams,
    cores: &mut [Core],
    hierarchy: &mut Hierarchy<B, T>,
) -> RunOutcome {
    let mut now: Cycle = 0;
    let mut warm = p.warmup == 0;
    let mut finish_ipc: Vec<Option<f64>> = vec![None; cores.len()];
    let mut stats = EngineStats::default();

    while now < p.max_cycles {
        hierarchy.tick(now);
        while let Some((core, id)) = hierarchy.pop_completion() {
            if (core as usize) < cores.len() {
                cores[core as usize].on_memory_complete(id);
            }
        }
        for core in cores.iter_mut() {
            core.tick(now, hierarchy);
        }
        now += 1;

        if window_checks(&mut warm, &mut finish_ipc, cores, hierarchy, p, now) {
            break;
        }

        // Cycle skipping: when every core is fully blocked (ROB-head load
        // outstanding, ROB full, nothing issuable) and the hierarchy proves
        // it has no work before cycle T, every cycle in [now, T) would be a
        // pure stall tick — replay them in O(1) and jump. Clamped to
        // max_cycles-1 so the final simulated cycle (which pins backend
        // measurement windows) matches the unskipped loop exactly.
        if p.skip {
            // Probe the cores first: they veto most skip attempts and their
            // bound is O(issue window), while the hierarchy bound walks
            // every channel. Only consult the hierarchy once every core is
            // provably stalled.
            let mut all_blocked = true;
            let mut target = Cycle::MAX;
            for c in cores.iter() {
                match c.next_event() {
                    Some(e) => target = target.min(e),
                    None => {
                        all_blocked = false;
                        break;
                    }
                }
            }
            if all_blocked {
                // The hierarchy last ticked at now-1, so its next event may
                // be at `now` itself; probe from the last ticked cycle.
                // saturating_sub guards the now == 0 edge (skipping engaged
                // before the first tick must probe cycle 0, not wrap).
                target = target.min(hierarchy.next_event(now.saturating_sub(1)));
                stats.blocked_iters += 1;
                let target = target.min(p.max_cycles - 1);
                if target > now {
                    let skipped = target - now;
                    stats.skipped_cycles += skipped;
                    for c in cores.iter_mut() {
                        c.fast_forward(skipped);
                    }
                    now = target;
                }
            }
        }
    }
    RunOutcome { now, finish_ipc, stats }
}

/// Per-core scheduling state for the event engine. A parked core sits out
/// its slot in the tick order until it wakes there; `idle_from` is its
/// first un-ticked cycle, and the span from there is replayed via
/// `fast_forward` at wake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreState {
    /// Ticks every visited cycle.
    Runnable,
    /// Fully blocked ([`Core::next_event`]); wakes at `until`, its own
    /// bound (`Cycle::MAX` = none), or earlier when a delivered completion
    /// makes it runnable.
    Blocked { idle_from: Cycle, until: Cycle },
    /// Blocked but for an access the hierarchy refuses on `line`
    /// ([`Core::refused_wait`]); wakes at `until` or once the hierarchy's
    /// watch reports the refusal may have ended. Counts as runnable, so it
    /// keeps every cycle visited.
    Refused { idle_from: Cycle, until: Cycle, line: u64 },
}

/// Bring a parked core's counters up to cycle boundary `upto` (exclusive):
/// replay the pure-stall span `[idle_from, upto)` and restart the span at
/// `upto`. Required before anything reads or resets the core's counters
/// (warmup flip, IPC freeze, loop exit).
fn materialize(cores: &mut [Core], state: &mut [CoreState], upto: Cycle) {
    for (c, s) in cores.iter_mut().zip(state.iter_mut()) {
        if let CoreState::Blocked { idle_from, .. } | CoreState::Refused { idle_from, .. } = s {
            if upto > *idle_from {
                c.fast_forward(upto - *idle_from);
                *idle_from = upto;
            }
        }
    }
}

/// The per-core event-driven scheduler.
///
/// Every parked core wakes by one rule: at its own slot in the tick order,
/// once the cycle reaches its bound or, for a refused core, the hierarchy
/// flags the refusal as ended. A completion delivered to a blocked core
/// can make it runnable earlier. While any core is runnable every cycle is
/// visited; when all are blocked the loop jumps to the least bound among
/// them or the hierarchy's `next_event`, whichever comes first. Visited
/// cycles — and therefore every hierarchy tick and completion delivery —
/// are identical to the lockstep engine's.
pub fn run_event<B: MemoryBackend, T: TelemetrySink>(
    p: &RunParams,
    cores: &mut [Core],
    hierarchy: &mut Hierarchy<B, T>,
) -> RunOutcome {
    let n = cores.len();
    let mut state = vec![CoreState::Runnable; n];
    // Cores not `Blocked`: refused ones keep every cycle visited.
    let mut runnable = n;
    let mut now: Cycle = 0;
    let mut warm = p.warmup == 0;
    let mut finish_ipc: Vec<Option<f64>> = vec![None; cores.len()];
    let mut stats = EngineStats::default();

    while now < p.max_cycles {
        // --- simulate visited cycle `now` ---
        hierarchy.tick(now);
        while let Some((core, id)) = hierarchy.pop_completion() {
            let i = core as usize;
            if i >= n {
                continue;
            }
            cores[i].on_memory_complete(id);
            // The completion may have unblocked the core. Re-probe: its
            // scheduled heap is frozen while blocked, so the bound can only
            // stay put or collapse to "runnable".
            if let CoreState::Blocked { idle_from, .. } = state[i] {
                if cores[i].next_event().is_none() {
                    cores[i].fast_forward(now - idle_from);
                    state[i] = CoreState::Runnable;
                    runnable += 1;
                }
            }
        }
        // Tick cores in fixed core order (identical to lockstep's iteration
        // order); park the ones that come out fully blocked or refused. A
        // parked core wakes here, at its own slot, so a fill by an earlier
        // core reaches a refused one this cycle and one by a later core the
        // next, as in lockstep.
        for i in 0..n {
            let woke_at_bound = match state[i] {
                CoreState::Runnable => false,
                CoreState::Blocked { idle_from, until } => {
                    if now < until {
                        continue;
                    }
                    debug_assert_eq!(
                        until, now,
                        "core {i}: bound in the past means a missed wake-up"
                    );
                    cores[i].fast_forward(now - idle_from);
                    runnable += 1;
                    true
                }
                CoreState::Refused { idle_from, until, line } => {
                    if now < until && !hierarchy.refusal_ended(i) {
                        debug_assert!(
                            hierarchy.refuses(i, line),
                            "core {i}: parked on a refused access to line {line:#x} \
                             (cycle {now}) that the hierarchy no longer refuses"
                        );
                        continue;
                    }
                    hierarchy.unwatch(i);
                    cores[i].fast_forward(now - idle_from);
                    false
                }
            };
            state[i] = CoreState::Runnable;
            let fp_before =
                (cfg!(debug_assertions) && woke_at_bound).then(|| cores[i].progress_fingerprint());
            cores[i].tick(now, hierarchy);
            stats.core_ticks += 1;
            if let Some(before) = fp_before {
                // Stale-bound tripwire: `next_event` promised the core's
                // own state changes at this cycle (a due `scheduled` entry
                // pops), so a pure-stall wake-up tick means the bound was
                // conservative and skipping is silently degraded.
                assert_ne!(
                    before,
                    cores[i].progress_fingerprint(),
                    "core {i}: woken at its own next_event bound (cycle {now}) \
                     but the tick made no progress — stale bound"
                );
            }
            if let Some(until) = cores[i].next_event() {
                state[i] = CoreState::Blocked { idle_from: now + 1, until };
                runnable -= 1;
            } else if let Some((line, until)) = cores[i].refused_wait() {
                hierarchy.watch_refused(i, line);
                state[i] = CoreState::Refused { idle_from: now + 1, until, line };
            }
        }
        now += 1;

        // The warmup flip zeroes every core's counters; parked spans must
        // be replayed into the pre-reset window first, exactly as lockstep
        // ticked them, or post-reset counters would inherit pre-reset
        // stalls. (The finish-IPC freeze needs no such care: a core is
        // frozen at the boundary right after the tick in which it crossed
        // its budget, so its counters are always current there.)
        if !warm && cores.iter().all(|c| c.retired >= p.warmup) {
            materialize(cores, &mut state, now);
        }
        if window_checks(&mut warm, &mut finish_ipc, cores, hierarchy, p, now) {
            break;
        }

        // --- choose the next visited cycle ---
        // While any core is runnable the next cycle is visited (lockstep
        // semantics); when every core is blocked, jump to the least of
        // their bounds and the hierarchy's, which the hierarchy probes
        // from its last ticked cycle. No bound is ever jumped past.
        if runnable == 0 && p.skip {
            stats.blocked_iters += 1;
            let mut target = hierarchy.next_event(now.saturating_sub(1));
            for s in &state {
                if let CoreState::Blocked { until, .. } = *s {
                    target = target.min(until);
                }
            }
            let target = target.min(p.max_cycles - 1);
            if target > now {
                stats.skipped_cycles += target - now;
                now = target;
            }
        }
    }
    materialize(cores, &mut state, now);
    RunOutcome { now, finish_ipc, stats }
}
