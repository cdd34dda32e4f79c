//! `sweep-cold`: a 72-run slice of the `sim_throughput` bench's latency
//! sweep — every fourth registry workload × (DDR baseline + COAXIAL-4x at
//! seven CXL latencies), `Budget::quick` — through the job pool at
//! `COAXIAL_JOBS=2`, starting cold every pass.
//!
//! The checkpoint stores are process-global with no reset, so each pass
//! draws a fresh seed instead of a fresh process: no key of a pass is in
//! the store when it starts, exactly as in a new process. Every pass seed,
//! pass 0's too, is derived from the run seed on a stream of its own, and
//! set-up uses other streams and the run seed itself, so set-up leaves
//! nothing a pass can restore. Each pass checks it: the first run of every
//! (workload, config) — the leader that replays the prefill for its
//! timing siblings — must report that nothing was restored. A slice rather
//! than all 288 runs, so a run repeats every input several times (see
//! `PassLog::metrics`).

use std::time::Instant;

use coaxial_system::experiments::Budget;
use coaxial_telemetry::NullTelemetry;
use coaxial_workloads::Workload;

use crate::job::Job;
use crate::run::{repeated_setup, timed_passes, Measured, PassOp, Settings};
use crate::stats::{derive_seed, digest};

pub const JOBS: &str = "2";
const LATENCIES_NS: [f64; 7] = [10.0, 20.0, 30.0, 50.0, 60.0, 70.0, 90.0];
const SETUP_STREAM: u64 = 1;
const PASS_STREAM: u64 = 2;
const TRACE_STREAM: u64 = 3;

/// DDR baseline plus COAXIAL-4x at each latency, per workload.
fn jobs(workloads: &[&Workload], seed: u64, budget: Budget) -> Vec<Job> {
    workloads
        .iter()
        .flat_map(|w| {
            let base = Job::new(w.name, "ddr", seed, budget.instructions).warmup(budget.warmup);
            let cxl = LATENCIES_NS.map(|ns| {
                Job::new(w.name, "4x", seed, budget.instructions).warmup(budget.warmup).cxl_ns(ns)
            });
            std::iter::once(base).chain(cxl)
        })
        .collect()
}

fn budget(s: &Settings) -> Budget {
    if s.smoke {
        Budget { instructions: 1_000, warmup: 200 }
    } else {
        Budget::quick()
    }
}

/// Every fourth registry workload (9 of 36, across all suites); two in the
/// smoke test.
fn workloads(s: &Settings) -> Vec<&'static Workload> {
    let stride = if s.smoke { 18 } else { 4 };
    Workload::all().iter().step_by(stride).collect()
}

/// One cold pass: every job through the pool, each run timed and its
/// report checked for plausibility. The leaders — the first job of each
/// (workload, config); the baseline and COAXIAL geometries never share
/// warmed state — must have replayed the prefill cold.
fn pass(jobs: &[Job]) -> Vec<PassOp> {
    let leader: Vec<bool> = (0..jobs.len())
        .map(|i| {
            let (w, cfg) = (jobs[i].workload.name, jobs[i].config);
            !jobs[..i].iter().any(|j| j.workload.name == w && j.config == cfg)
        })
        .collect();
    let ops = coaxial_system::parallel_map(jobs, |job| {
        let sim = job.spec().simulation();
        let t = Instant::now();
        let (r, _, reg) = sim.run_with_telemetry(NullTelemetry);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let ok = r.instructions == job.instructions
            && r.per_core_ipc.iter().all(|ipc| ipc.is_finite() && *ipc > 0.0)
            && r.cycles > 0;
        let restored = reg.counter("server.prefill.restored").unwrap_or(0) > 0;
        (PassOp { ms, digest: digest(&r), sim_instructions: job.sim_instructions(), ok }, restored)
    });
    ops.into_iter()
        .zip(leader)
        .map(|((mut op, restored), leader)| {
            op.ok &= !(leader && restored);
            op
        })
        .collect()
}

pub fn measure(s: &Settings) -> Result<Measured, String> {
    let budget = budget(s);
    // Set-up: a cold mini-sweep over two workloads, which pays the
    // process's one-time costs (registry, pool threads, allocator growth).
    let setup = repeated_setup(s, SETUP_STREAM, |seed| {
        let two: Vec<&Workload> = Workload::all()[..2].iter().collect();
        pass(&jobs(&two, seed, budget));
        Ok(())
    })?;
    if s.traced {
        // Two workloads (16 runs) per batch, rotating through the slice,
        // each batch on a fresh seed so it stays cold.
        let all = workloads(s);
        return Ok(crate::traced::profile_batches(s, "sweep-cold", |k| {
            let i = (2 * coaxial_sim::idx(k)) % all.len();
            let end = (i + 2).min(all.len());
            jobs(&all[i..end], derive_seed(s.seed, TRACE_STREAM, k), budget)
        }));
    }

    let workloads = workloads(s);
    let mut out = Measured::default();
    let log = timed_passes(s, &mut out, false, |k| {
        pass(&jobs(&workloads, derive_seed(s.seed, PASS_STREAM, k), budget))
    });
    out.metrics = log.metrics(setup);
    Ok(out)
}
