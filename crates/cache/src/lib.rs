//! Cache hierarchy, NoC, and CALM mechanisms for the COAXIAL reproduction.
//!
//! The hierarchy follows the paper's Table III: per-core 32 KB L1 (4-cycle
//! hit) and 512 KB L2 (8-cycle hit), plus a distributed, shared,
//! non-inclusive LLC (20-cycle bank hit, 16-way) reached over a 2D-mesh NoC
//! at 3 cycles per hop. L2 misses optionally perform **CALM** — Concurrent
//! Access of LLC and Memory (paper §IV-C) — governed by one of the
//! mechanisms in [`calm`]: the bandwidth-regulated `CALM_R`, the PC-based
//! MAP-I predictor, or an oracle.
//!
//! [`hierarchy::Hierarchy`] owns the cache arrays and a
//! [`coaxial_dram::MemoryBackend`] (direct DDR for the baseline, CXL-attached
//! for COAXIAL) and exposes a simple `access … pop_completion` interface that
//! the core model drives.

pub mod cache;
pub mod calm;
pub mod hierarchy;
mod mshr;
pub mod noc;
pub mod prefetch;

pub use cache::CacheArray;
pub use calm::{CalmEngine, CalmPolicy, CalmStats};
pub use hierarchy::{AccessId, CacheGeometry, HierStats, Hierarchy, HierarchyConfig, PrefillState};
pub use noc::Mesh;
pub use prefetch::{PrefetchPolicy, PrefetchStats};
