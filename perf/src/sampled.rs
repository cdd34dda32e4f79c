//! `sampled-horizon`: SMARTS-style interval-sampled runs over a long
//! per-core horizon. Functional fast-forward — the generators plus
//! `prefill_access`, with no timing model — does most of the work, so a
//! gain on the timed path that costs the functional path shows here.

use std::time::Instant;

use coaxial_system::SamplingConfig;

use crate::detailed;
use crate::job::Job;
use crate::run::{prefill_setup, repeated_setup, timed_passes, Measured, PassOp, Settings};
use crate::stats::digest;

pub const JOBS: &str = "1";
const SETUP_STREAM: u64 = 21;

/// {mcf, lbm, raytrace, PageRank} on COAXIAL-4x over `horizon`
/// instructions per core.
fn jobs(seed: u64, horizon: u64) -> Vec<Job> {
    detailed::WORKLOADS.iter().map(|w| Job::new(w, "4x", seed, horizon)).collect()
}

pub fn measure(s: &Settings) -> Result<Measured, String> {
    let scfg = if s.smoke {
        SamplingConfig { intervals: 2, measure: 500, warm: 500, ci_target: 0.0 }
    } else {
        SamplingConfig::default()
    };
    let horizon = if s.smoke { 20_000 } else { 1_000_000 };
    let setup = repeated_setup(s, SETUP_STREAM, |seed| {
        prefill_setup(&jobs(seed, 1));
        Ok(())
    })?;
    if s.traced {
        // The detailed intervals' shape, run in full detail (on both
        // backends): the sampling loop is not assembled from public parts,
        // so its timed spans are profiled through their full-detail
        // equivalent.
        let jobs = detailed::jobs(s.seed, scfg.measure, scfg.warm);
        return Ok(crate::traced::profile_batches(s, "sampled-horizon", |_| jobs.clone()));
    }
    let jobs = jobs(s.seed, horizon);
    let mut out = Measured::default();
    let (mut ff, mut detail) = (0u64, 0u64);
    let log = timed_passes(s, &mut out, true, |_| {
        jobs.iter()
            .map(|job| {
                let sim = job.spec().simulation();
                let t = Instant::now();
                let r = sim.run_sampled(&scfg);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                ff += r.sampling.fast_forward_instructions;
                detail += r.sampling.detail_instructions;
                let sim_instructions =
                    r.sampling.fast_forward_instructions + r.sampling.detail_instructions;
                PassOp { ms, digest: digest(&r), sim_instructions, ok: true }
            })
            .collect()
    });
    out.note(format!(
        "horizon {horizon} instructions per core; fast-forward {:.1} % of simulated instructions",
        100.0 * ff as f64 / (ff + detail) as f64
    ));
    out.metrics = log.metrics(setup);
    Ok(out)
}
