//! Trace-driven out-of-order core model.
//!
//! This crate is the reproduction's ChampSim-equivalent core (paper Table
//! III: 12 OoO cores, 2.4 GHz, 4-wide, 256-entry ROB). The model captures
//! exactly the aspects of an OoO core that the paper's results depend on:
//!
//! * a 4-wide in-order front end and in-order retire,
//! * a 256-entry ROB that bounds memory-level parallelism,
//! * loads that block retirement until data returns,
//! * stores that retire through a store buffer (their cache fill proceeds
//!   in the background, later producing dirty writebacks),
//! * explicit load→load dependencies from the trace (pointer chasing),
//!   which serialize misses and starve MLP.
//!
//! The trace format ([`trace::TraceOp`]) is a compressed instruction
//! stream: each record carries the number of non-memory instructions that
//! precede a memory operation, plus the operation itself.

// No unsafe anywhere in this crate; keep it that way (clippy::undocumented_unsafe_blocks).
#![forbid(unsafe_code)]

pub mod core;
pub mod trace;
pub mod tracefile;

pub use crate::core::{Core, CoreParams};
pub use trace::{functional_advance, MemKind, TraceOp, TraceSource, VecTrace};
pub use tracefile::FileTrace;
