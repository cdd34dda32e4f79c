//! `run-detailed`: one full-detail `coaxial run` per input, serially, with
//! the prefill restored from the checkpoint store, so the timing loop does
//! almost all the work.
//!
//! Inputs: {mcf, lbm, raytrace, PageRank} × {DDR baseline, COAXIAL-4x} —
//! latency-bound reads (mcf), write-heavy bandwidth-bound traffic (lbm,
//! 35 % stores), cache-resident compute (raytrace) and irregular graph
//! traffic (PageRank), on both memory backends.

use std::time::Instant;

use crate::job::Job;
use crate::run::{prefill_setup, repeated_setup, timed_passes, Measured, PassOp, Settings};
use crate::stats::digest;

pub const JOBS: &str = "1";
pub const WORKLOADS: [&str; 4] = ["mcf", "lbm", "raytrace", "PageRank"];
const SETUP_STREAM: u64 = 11;

/// The eight inputs at `seed` with `instructions` measured per core.
pub fn jobs(seed: u64, instructions: u64, warmup: u64) -> Vec<Job> {
    WORKLOADS
        .iter()
        .flat_map(|w| ["ddr", "4x"].map(|cfg| Job::new(w, cfg, seed, instructions).warmup(warmup)))
        .collect()
}

pub fn measure(s: &Settings) -> Result<Measured, String> {
    let (instructions, warmup) = if s.smoke { (3_000, 600) } else { (40_000, 8_000) };
    let setup = repeated_setup(s, SETUP_STREAM, |seed| {
        prefill_setup(&jobs(seed, instructions, warmup));
        Ok(())
    })?;
    let jobs = jobs(s.seed, instructions, warmup);
    if s.traced {
        return Ok(crate::traced::profile_batches(s, "run-detailed", |_| jobs.clone()));
    }
    let mut out = Measured::default();
    let log = timed_passes(s, &mut out, true, |_| {
        jobs.iter()
            .map(|job| {
                let spec = job.spec();
                let t = Instant::now();
                let report = spec.run();
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let sim_instructions = job.sim_instructions();
                PassOp { ms, digest: digest(&report), sim_instructions, ok: true }
            })
            .collect()
    });
    out.metrics = log.metrics(setup);
    Ok(out)
}
