//! Cycle-level DDR5 memory channel model.
//!
//! This crate is the reproduction's substitute for DRAMsim3 (see DESIGN.md
//! §2). It models a DDR5-4800 channel as two independent 32-bit
//! sub-channels (per JEDEC JESD79-5 and the paper's Table III), each with
//! one rank of 32 banks in 8 bank groups, an FR-FCFS scheduler with separate
//! read and write queues, write-drain watermarks, per-bank row-buffer state,
//! all first-order timing constraints (tRCD/tRP/tRAS/tRC, tCCD_L/S,
//! tRRD_L/S, tFAW, tWR, tRTP, tWTR, bus turnaround) and all-bank refresh
//! (tREFI/tRFC). Energy is accounted per command in the style of DRAMsim3's
//! power model.
//!
//! The load-latency behaviour of this model — the exponential growth of
//! queuing delay with bandwidth utilization — is what drives every result
//! in the paper (Fig. 2a), so the scheduler and timing machinery are the
//! most carefully tested part of the reproduction.

// No unsafe anywhere in this crate; keep it that way (clippy::undocumented_unsafe_blocks).
#![forbid(unsafe_code)]

pub mod audit;
pub mod bank;
pub mod channel;
pub mod config;
pub mod multi;
pub mod power;
pub mod request;
pub mod subchannel;

pub use channel::{Channel, ChannelStats};
pub use config::{DramConfig, DramTimings};
pub use multi::MultiChannel;
pub use power::{DramEnergy, DramPowerParams};
pub use request::{MemRequest, MemResponse, ReqId};

use coaxial_sim::Cycle;

/// Anything that can stand at the far end of the cache hierarchy: a directly
/// attached DDR channel group (the baseline) or a set of CXL-attached
/// Type-3 devices (COAXIAL). The system crate drives this interface.
pub trait MemoryBackend {
    /// Try to accept a request; `Err` returns it on back-pressure.
    fn try_enqueue(&mut self, req: MemRequest) -> Result<(), MemRequest>;

    /// Advance one system clock cycle.
    fn tick(&mut self, now: Cycle);

    /// Pop one request completed by `now`, if any.
    fn pop_response(&mut self, now: Cycle) -> Option<MemResponse>;

    /// Number of independent DDR channels behind this backend (used for
    /// bandwidth-utilization reporting).
    fn ddr_channel_count(&self) -> usize;

    /// Aggregated DDR statistics over the current measurement window.
    fn ddr_stats(&self) -> ChannelStats;

    /// Zero all statistics and start a new measurement window at `now`
    /// (called at the end of warmup).
    fn reset_stats(&mut self, now: Cycle);

    /// Aggregate peak DDR bandwidth behind this backend, GB/s.
    fn peak_bandwidth_gbs(&self) -> f64;

    /// Mean (TX, RX) serial-link utilization, if this backend has serial
    /// links (CXL); `None` for direct DDR attach.
    fn link_utilization(&self) -> Option<(f64, f64)> {
        None
    }

    /// Earliest future cycle at which this backend could do observable work
    /// (pop a completion, hit a refresh deadline, move a queued request, ...),
    /// given no new requests arrive. A lower bound: ticking the backend on
    /// every cycle in `(now, next_event(now))` must be a no-op. Backends that
    /// cannot prove quiescence return `now + 1` (never skip).
    fn next_event(&self, _now: Cycle) -> Cycle {
        _now + 1
    }

    /// Export backend-specific metrics (per-channel counters, link
    /// utilizations, ...) into `reg` under `prefix`. Called off the hot
    /// path, at harvest time only. Default: nothing.
    fn export_metrics(&self, _reg: &mut coaxial_telemetry::MetricsRegistry, _prefix: &str) {}
}
