//! Simulation substrate shared by every COAXIAL model crate.
//!
//! The whole system is simulated on a single 2.4 GHz clock (one tick =
//! 0.41667 ns). DDR5-4800's I/O clock happens to also be 2.4 GHz, so one CPU
//! cycle equals one DRAM clock and no cross-domain synchronization is needed
//! (see DESIGN.md §5).
//!
//! This crate deliberately has no model-specific logic; it provides:
//!
//! * [`time`] and [`narrow`] — the `Cycle` type, ns⇄cycle conversion at the
//!   system clock, and the typed narrowing casts (re-exported from
//!   `coaxial-telemetry`, their one home),
//! * [`rng`] — a tiny, fast, deterministic RNG (`SplitMix64`),
//! * [`stats`] — counters, running means, and latency histograms with
//!   percentile queries (re-exported from `coaxial-telemetry`, the
//!   canonical implementation),
//! * [`lru`] — a byte-bounded keyed LRU (prefill-state memoization),
//! * [`checkpoint`] — the content-addressed snapshot store (memory LRU +
//!   optional disk tier) behind post-prefill state restore,
//! * [`queue`] — the bounded FIFO queue behind every buffering point,
//! * [`sample`] — interval-sample aggregation (mean ± Student-t confidence
//!   interval) behind the SMARTS-style sampled execution mode, and
//! * [`env`] — the shared `COAXIAL_*` environment knobs (budgets, job count,
//!   cycle-skip toggle).

// No unsafe anywhere in this crate; keep it that way (clippy::undocumented_unsafe_blocks).
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod env;
pub mod lru;
pub mod queue;
pub mod rng;
pub mod sample;

pub use coaxial_telemetry::{narrow, time, Histogram};

pub use checkpoint::{CheckpointCounters, CheckpointStore, KeyHasher, Snapshot};
pub use lru::ByteBoundedLru;
pub use narrow::{idx, small_u32, small_u32_u64, trunc_u32, trunc_u64, trunc_usize};
pub use queue::BoundedQueue;
pub use rng::SplitMix64;
pub use sample::SampleSeries;
pub use time::{
    cycles_f64_to_ns, cycles_to_ns, gbs_to_bytes_per_cycle, ns_to_cycles, Cycle, CPU_FREQ_GHZ,
    NS_PER_CYCLE,
};
