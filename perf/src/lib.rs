//! `coaxial-perf` — the repository benchmark: end-to-end host-time
//! metrics of the simulator's three user-facing paths (the latency sweep,
//! one detailed run, one served `/v1/run`) plus interval sampling, and a
//! traced per-layer profile of where that host time goes.
//!
//! See `README.md` next to this crate for the workloads, the metric →
//! layer → end-to-end map, and how to read the spread.

// No unsafe anywhere in this crate; keep it that way.
#![forbid(unsafe_code)]

pub mod catalog;
mod detailed;
mod job;
mod profile;
mod run;
mod sampled;
mod serve;
mod stats;
mod sweep;
mod traced;

pub use profile::STRIDE;
pub use run::{Measured, Settings};

/// `COAXIAL_JOBS` for a workload: the sweep's job pool gets two workers
/// (the host has two cores); everything else runs one simulation at a
/// time, as a single `coaxial run` or one gateway worker does.
pub fn jobs_for(workload: &str) -> Option<&'static str> {
    match workload {
        "sweep-cold" => Some(sweep::JOBS),
        "run-detailed" => Some(detailed::JOBS),
        "serve-mixed" => Some(serve::JOBS),
        "sampled-horizon" => Some(sampled::JOBS),
        _ => None,
    }
}

/// Run one workload (by catalog name) in this process.
pub fn run_workload(workload: &str, s: &Settings) -> Result<Measured, String> {
    let mut m = match workload {
        "sweep-cold" => sweep::measure(s),
        "run-detailed" => detailed::measure(s),
        "serve-mixed" => serve::measure(s),
        "sampled-horizon" => sampled::measure(s),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    m.note(format!("peak RSS of the whole run (VmHWM): {:.1} MB", stats::peak_rss_mb()));
    Ok(m)
}
