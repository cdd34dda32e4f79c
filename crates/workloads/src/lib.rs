//! Workload generators standing in for the paper's trace suite.
//!
//! The paper drives ChampSim with dynamic execution traces of 36 workloads
//! (SPEC-speed 2017, LIGRA graph analytics, STREAM, PARSEC, masstree,
//! kmeans). Those traces are not redistributable, so this crate generates
//! *statistically equivalent* instruction streams (see DESIGN.md §2):
//! every workload is characterized by its memory-op density, footprint,
//! spatial locality, pointer-chase fraction, write fraction, and
//! burstiness — the properties that determine all of the paper's results
//! (MPKI, bandwidth demand, R:W ratio, and MLP).
//!
//! Three generator families cover the suite:
//!
//! * [`synthetic::SyntheticTrace`] — parameter-driven streams (SPEC,
//!   PARSEC, STREAM, kmeans);
//! * [`graph::GraphTrace`] — walks over a real synthetic CSR graph
//!   (LIGRA workloads): sequential edge-array scans interleaved with
//!   random per-neighbor data accesses;
//! * [`tree::TreeTrace`] — dependent pointer-chasing walks over a tree
//!   (masstree).
//!
//! [`registry::Workload`] names all 36 workloads with the paper's Table IV
//! reference points recorded alongside; [`mixes`] reproduces the Fig. 6
//! random 12-workload mixes; [`traffic::PoissonTraffic`] is the
//! rate-controlled random load used for the Fig. 2a load-latency curve.

// No unsafe anywhere in this crate; keep it that way (clippy::undocumented_unsafe_blocks).
#![forbid(unsafe_code)]

pub mod characterize;
pub mod graph;
pub mod mixes;
pub mod registry;
pub mod synthetic;
pub mod traffic;
pub mod tree;

pub use characterize::{characterize, TraceProfile};
pub use registry::{Suite, Workload};
pub use synthetic::SyntheticParams;
pub use traffic::PoissonTraffic;

/// Each core works in its own 2^34-line (1 TB) address region, modelling
/// the paper's multi-programmed setup (the same workload on every core,
/// separate address spaces).
pub const CORE_REGION_BITS: u32 = 34;

/// Base line address of a core's private region.
#[inline]
pub fn core_base(core: u32) -> u64 {
    (core as u64) << CORE_REGION_BITS
}
