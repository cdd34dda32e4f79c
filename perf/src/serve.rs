//! `serve-mixed`: `/v1/run` traffic against an in-process gateway
//! (`coaxial_gateway::serve` on `127.0.0.1:0`, one worker, queue 64,
//! 32 MB result cache, no rate limit).
//!
//! Closed loop: two clients, each sending its next request when the last
//! one is answered. 90 % of requests are hits on a 16-body set warmed
//! during set-up: HTTP, JSON, the result cache and the queue do all their
//! work and the simulator none. 10 % are misses on a hit-set body: two in
//! three change `cxl_ns` (a timing sibling, so the worker restores its
//! checkpoint and runs the timed loop), one in three changes the seed (a
//! cold prefill replay, queued behind the one worker). Within every 30
//! requests of a client the shares are exact.
//!
//! Hits and misses are reported as their own quantiles: `op_p50_ms` is
//! the median hit, `op_p90_ms` the 90th percentile of the misses.

use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use coaxial_gateway::http::client_request;
use coaxial_gateway::{report_to_json, serve, GatewayConfig, GatewayStats};
use coaxial_sim::SplitMix64;

use crate::detailed::WORKLOADS;
use crate::job::Job;
use crate::run::{repeated_setup, Measured, Settings};
use crate::stats::{derive_seed, digest, digest_all, median, quantile};

pub const JOBS: &str = "1";
const CONFIGS: [&str; 4] = ["ddr", "2x", "4x", "asym"];
const CLIENTS: u64 = 2;
/// The request mix repeats every `MIX` requests of a client: three misses,
/// the first two timing siblings and the last a fresh seed.
const MIX: u64 = 30;
/// Misses per client re-run in-process to check the served body.
const CHECKED_MISSES: usize = 8;
/// Equal time windows the measured run is cut into (see [`window_rates`]).
const WINDOWS: usize = 10;
const SETUP_STREAM: u64 = 31;
const REQUEST_STREAM: u64 = 40;
const COLD_STREAM: u64 = 50;

fn hit_set(seed: u64, smoke: bool) -> Vec<Job> {
    let (instructions, warmup) = if smoke { (500, 100) } else { (2_000, 500) };
    WORKLOADS
        .iter()
        .flat_map(|w| CONFIGS.map(|cfg| Job::new(w, cfg, seed, instructions).warmup(warmup)))
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    /// A fresh CXL latency: restore plus the timed loop.
    Sibling,
    /// A fresh seed: cold prefill replay plus the timed loop.
    Cold,
}

/// A sibling miss on hit-set entry `base`: a fresh CXL latency. `n` makes
/// the latency unique; the offsets are far below one cycle, so every
/// sibling simulates the same machine under a distinct cache key (on DDR
/// bodies the override is a no-op, but still a distinct key).
fn sibling(base: &Job, n: u64) -> Job {
    base.clone().cxl_ns(45.5 + (n + 1) as f64 * 1e-6)
}

/// Request `i` of client `c`, a pure function of the run seed: its kind,
/// the hit-set entry it is based on, and the job. The clients' miss
/// positions are offset by half a mix, so their misses do not coincide.
/// Hits draw their entry at random; misses walk the hit set from a seeded
/// start, so every 48 misses of a client cover each (entry, kind) pair
/// once and no seed draws a cheaper or dearer set of misses.
fn request(seed: u64, hits: &[Job], c: u64, i: u64) -> (Kind, usize, Job) {
    let len = hits.len() as u64;
    let pos = i + c * MIX / 2;
    let miss = |slot: u64| {
        let start = SplitMix64::new(derive_seed(seed, REQUEST_STREAM + c, 0)).next_below(len);
        coaxial_sim::idx((start + pos / MIX * 3 + slot) % len)
    };
    let n = i * CLIENTS + c;
    match pos % MIX {
        9 => (Kind::Sibling, miss(0), sibling(&hits[miss(0)], n)),
        19 => (Kind::Sibling, miss(1), sibling(&hits[miss(1)], n)),
        29 => {
            let mut job = hits[miss(2)].clone();
            job.seed = derive_seed(seed, COLD_STREAM, n);
            (Kind::Cold, miss(2), job)
        }
        _ => {
            let mut rng = SplitMix64::new(derive_seed(seed, REQUEST_STREAM + c, i + 1));
            let idx = coaxial_sim::idx(rng.next_below(len));
            (Kind::Hit, idx, hits[idx].clone())
        }
    }
}

struct Gateway {
    addr: String,
    server: JoinHandle<std::io::Result<GatewayStats>>,
}

fn start() -> Result<Gateway, String> {
    let dir = PathBuf::from("target/perf");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let port_file = dir.join(format!("serve-{}.addr", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let cfg = GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 64,
        cache_mb: 32,
        rate_per_sec: 0,
        burst: 8,
        port_file: Some(port_file.clone()),
    };
    let server = std::thread::spawn(move || serve(cfg));
    let t0 = Instant::now();
    loop {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            let _ = std::fs::remove_file(&port_file);
            return Ok(Gateway { addr: addr.trim().to_string(), server });
        }
        if server.is_finished() || t0.elapsed() > Duration::from_secs(10) {
            let why = match server.join() {
                Ok(Err(e)) => e.to_string(),
                Ok(Ok(_)) => "exited early".to_string(),
                Err(_) => "panicked".to_string(),
            };
            return Err(format!("gateway did not start: {why}"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Drain and stop the gateway; its final counters.
fn stop(gw: Gateway) -> Result<GatewayStats, String> {
    client_request("POST", &format!("http://{}/shutdown", gw.addr), b"")
        .map_err(|e| format!("shutdown request: {e}"))?;
    match gw.server.join() {
        Ok(Ok(stats)) => Ok(stats),
        Ok(Err(e)) => Err(format!("gateway failed: {e}")),
        Err(_) => Err("gateway thread panicked".to_string()),
    }
}

/// POST a run body; `None` on a transport error.
fn post(addr: &str, body: &str) -> Option<(u16, Vec<u8>)> {
    client_request("POST", &format!("http://{addr}/v1/run"), body.as_bytes())
        .ok()
        .map(|r| (r.status, r.body))
}

/// Warm the hit set at `seed`; the served bodies, in order.
fn warm(gw: &Gateway, seed: u64, smoke: bool) -> Result<Vec<Vec<u8>>, String> {
    let mut bodies = Vec::new();
    for job in hit_set(seed, smoke) {
        match post(&gw.addr, &job.body()) {
            Some((200, body)) => bodies.push(body),
            other => {
                let status = other.map_or("transport error".to_string(), |(s, _)| s.to_string());
                return Err(format!("warming {}: {status}", job.body()));
            }
        }
    }
    Ok(bodies)
}

struct Sample {
    /// When the request was sent, seconds into the measured run.
    sent_s: f64,
    kind: Kind,
    ms: f64,
    ok: bool,
    sim_instructions: u64,
    /// Kept for the first [`CHECKED_MISSES`] misses of each client.
    served: Option<(Job, Vec<u8>)>,
}

fn client(
    addr: &str,
    seed: u64,
    hits: &[Job],
    bodies: &[Vec<u8>],
    c: u64,
    s: &Settings,
    t0: Instant,
) -> Vec<Sample> {
    let mut out = Vec::new();
    let mut kept = 0;
    for i in 0.. {
        if s.expired(t0) {
            break;
        }
        let (kind, idx, job) = request(seed, hits, c, i);
        let sent_s = t0.elapsed().as_secs_f64();
        let t = Instant::now();
        let resp = post(addr, &job.body());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let mut sample = Sample { sent_s, kind, ms, ok: false, sim_instructions: 0, served: None };
        if let Some((200, body)) = resp {
            let hit = kind == Kind::Hit;
            sample.ok = !hit || body == bodies[idx];
            if !hit {
                sample.sim_instructions = job.sim_instructions();
                if kept < CHECKED_MISSES {
                    kept += 1;
                    sample.served = Some((job, body));
                }
            }
        }
        out.push(sample);
    }
    out
}

/// The rates of the fastest of [`WINDOWS`] equal windows of the run
/// (requests binned by send time), like the fastest pass of a batch
/// workload: other tenants of the host slow whole stretches of a run, and
/// the fastest window tracks the code.
fn window_rates(samples: &[Sample], wall_s: f64) -> [(&'static str, f64); 2] {
    let window_s = wall_s / WINDOWS as f64;
    let mut requests = [0u64; WINDOWS];
    let mut instructions = [0u64; WINDOWS];
    for x in samples {
        let w = coaxial_sim::trunc_usize(x.sent_s / window_s).min(WINDOWS - 1);
        requests[w] += 1;
        instructions[w] += x.sim_instructions;
    }
    let best = |v: &[u64]| v.iter().copied().max().unwrap_or(0) as f64 / window_s;
    [("ops_per_s", best(&requests)), ("sim_minstr_per_s", best(&instructions) / 1e6)]
}

pub fn measure(s: &Settings) -> Result<Measured, String> {
    // One gateway for the whole run: each set-up repetition warms its hit
    // set through it, cold, and the last one's bodies are the hits.
    let gw = start()?;
    let mut bodies = Vec::new();
    let setup = repeated_setup(s, SETUP_STREAM, |seed| {
        bodies = warm(&gw, seed, s.smoke)?;
        Ok(())
    })?;
    let hits = hit_set(s.seed, s.smoke);

    if s.traced {
        stop(gw)?;
        // Misses are where the served path simulates: profile the misses
        // of client 0's request stream, one mix (two siblings and a cold
        // seed) per batch.
        return Ok(crate::traced::profile_batches(s, "serve-mixed", |k| {
            (k * MIX..(k + 1) * MIX)
                .map(|i| request(s.seed, &hits, 0, i))
                .filter(|(kind, _, _)| *kind != Kind::Hit)
                .map(|(_, _, job)| job)
                .collect()
        }));
    }

    let t0 = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|sc| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, hits, bodies) = (&gw.addr, &hits, &bodies);
                sc.spawn(move || client(addr, s.seed, hits, bodies, c, s, t0))
            })
            .collect();
        workers.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let mut out = Measured::default();
    for x in &samples {
        out.check(x.ok, || "request failed or a hit body changed".to_string());
    }
    // Served miss bodies must equal an in-process run of the same input.
    let mut digests = Vec::new();
    let mut overhead_ms = Vec::new();
    for x in &samples {
        let Some((job, served)) = &x.served else { continue };
        let t = Instant::now();
        let report = job.spec().run();
        let local_ms = t.elapsed().as_secs_f64() * 1e3;
        digests.push(digest(&report));
        let same = (report_to_json(&report) + "\n").as_bytes() == served.as_slice();
        out.check(same, || format!("served body differs from in-process run of {}", job.body()));
        overhead_ms.push(x.ms - local_ms);
    }
    let stats = stop(gw)?;

    let latencies = |kinds: &[Kind]| -> Vec<f64> {
        samples.iter().filter(|x| kinds.contains(&x.kind)).map(|x| x.ms).collect()
    };
    let hit = latencies(&[Kind::Hit]);
    let miss = latencies(&[Kind::Sibling, Kind::Cold]);
    let (sib, cold) = (latencies(&[Kind::Sibling]), latencies(&[Kind::Cold]));
    out.note(format!(
        "requests {} in {wall_s:.2} s: hits {} (p50 {:.3} ms, p99 {:.3} ms), misses {} (p50 {:.2} ms, \
         p90 {:.2} ms): timing siblings {} (p50 {:.2} ms, p90 {:.2} ms), fresh seeds {} (p50 {:.2} ms, \
         p90 {:.2} ms)",
        samples.len(),
        hit.len(),
        quantile(&hit, 0.5),
        quantile(&hit, 0.99),
        miss.len(),
        quantile(&miss, 0.5),
        quantile(&miss, 0.9),
        sib.len(),
        quantile(&sib, 0.5),
        quantile(&sib, 0.9),
        cold.len(),
        quantile(&cold, 0.5),
        quantile(&cold, 0.9),
    ));
    let executed = stats.jobs_completed.saturating_sub(s.setups() * hits.len() as u64);
    out.note(format!(
        "gateway: hit ratio {:.3}, dedup joins {}, rejected {}, failed jobs {}; \
         served-miss overhead over an in-process run p50 {:.2} ms ({} misses)",
        1.0 - executed as f64 / samples.len() as f64,
        stats.dedup_joins,
        stats.queue_rejected,
        stats.jobs_failed,
        median(&overhead_ms),
        overhead_ms.len(),
    ));
    out.note(format!("report digest (checked misses): {:032x}", digest_all(&digests)));
    out.metrics = setup.metrics().to_vec();
    out.metrics.extend([("op_p50_ms", quantile(&hit, 0.5)), ("op_p90_ms", quantile(&miss, 0.9))]);
    out.metrics.extend(window_rates(&samples, wall_s));
    Ok(out)
}
