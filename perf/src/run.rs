//! What every workload shares: run settings, the result it hands back,
//! repeated set-up, and the end-to-end metrics of a batch workload.

use std::time::Instant;

use crate::job::Job;
use crate::stats::{derive_seed, digest_all, fastest_repeats, median, peak_rss_mb, quantile};

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    /// Measured wall time; the last pass or batch may run past it.
    pub seconds: f64,
    pub traced: bool,
    /// Tiny inputs for the smoke test: checks outputs, measures nothing.
    pub smoke: bool,
}

impl Settings {
    /// Set-up repetitions whose median is `setup_s`.
    pub fn setups(&self) -> u64 {
        if self.smoke {
            1
        } else {
            3
        }
    }

    pub fn expired(&self, since: Instant) -> bool {
        since.elapsed().as_secs_f64() >= self.seconds
    }
}

/// A workload's result: operation counts, metrics by catalog name, and
/// informational lines printed above them.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

impl Measured {
    /// Count one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 8 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// What set-up measured: the end-to-end `setup_s` and `setup_peak_rss_mb`.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Median wall of the repetitions, s.
    pub wall_s: f64,
    /// The process's resident high-water mark (`VmHWM`) when set-up ends,
    /// MB.
    pub peak_rss_mb: f64,
}

impl Setup {
    pub fn metrics(self) -> [(&'static str, f64); 2] {
        [("setup_s", self.wall_s), ("setup_peak_rss_mb", self.peak_rss_mb)]
    }
}

/// Run the workload's set-up [`Settings::setups`] times. Every repetition
/// but the last gets a fresh derived seed, so each one starts cold; the
/// last uses the run seed and leaves its state in place for the
/// measurement.
///
/// The memory metric is the high-water mark of set-up rather than of the
/// whole run: set-up is the same cold work on every run, where the
/// measured run's peak also records where the allocator left freed
/// buffers, which moved `serve-mixed`'s by 25 % between runs of one seed.
pub fn repeated_setup(
    s: &Settings,
    stream: u64,
    mut setup: impl FnMut(u64) -> Result<(), String>,
) -> Result<Setup, String> {
    let n = s.setups();
    let mut walls = Vec::new();
    for k in 0..n {
        let seed = if k + 1 == n { s.seed } else { derive_seed(s.seed, stream, k) };
        let t = Instant::now();
        setup(seed)?;
        walls.push(t.elapsed().as_secs_f64());
    }
    Ok(Setup { wall_s: median(&walls), peak_rss_mb: peak_rss_mb() })
}

/// Warm the checkpoint store for `jobs`: one prefill-only run per job. The
/// warmed state is keyed by the functional config slice, not the budget,
/// so the measured runs restore it.
pub fn prefill_setup(jobs: &[Job]) {
    for job in jobs {
        Job { instructions: 1, warmup: 0, ..job.clone() }.spec().run();
    }
}

/// One input's outcome within a pass.
pub struct PassOp {
    pub ms: f64,
    pub digest: u128,
    pub sim_instructions: u64,
    /// The caller's check of the report passed.
    pub ok: bool,
}

/// Run passes until the run's time is up (at least two). `pass(k)` runs
/// each of the workload's inputs once, in a fixed order. With
/// `same_inputs` every pass runs identical inputs, so an input whose report
/// digest differs from its pass-0 digest is a failed operation.
pub fn timed_passes(
    s: &Settings,
    out: &mut Measured,
    same_inputs: bool,
    mut pass: impl FnMut(u64) -> Vec<PassOp>,
) -> PassLog {
    let mut log = PassLog::default();
    let mut first: Option<Vec<u128>> = None;
    let t0 = Instant::now();
    for k in 0.. {
        let tp = Instant::now();
        let ops = pass(k);
        let wall_s = tp.elapsed().as_secs_f64();
        let digests: Vec<u128> = ops.iter().map(|o| o.digest).collect();
        let first = first.get_or_insert_with(|| {
            out.note(format!("report digest (pass 0): {:032x}", digest_all(&digests)));
            digests.clone()
        });
        for (i, op) in ops.iter().enumerate() {
            let same = !same_inputs || first[i] == op.digest;
            out.check(op.ok && same, || format!("pass {k}, input {i}: report check failed"));
        }
        log.passes.push(ops.iter().map(|o| o.ms).collect());
        log.sim_instructions.push(ops.iter().map(|o| o.sim_instructions).sum());
        log.walls_s.push(wall_s);
        if k >= 1 && s.expired(t0) {
            break;
        }
    }
    let walls: Vec<String> = log.walls_s.iter().map(|w| format!("{w:.2}")).collect();
    out.note(format!("pass walls (s): {}", walls.join(" ")));
    log
}

/// Per-pass operation latencies of a batch workload, where a pass runs
/// each of the workload's inputs once.
#[derive(Debug, Default)]
pub struct PassLog {
    /// Per pass, each input's latency in ms, in input order.
    pub passes: Vec<Vec<f64>>,
    pub sim_instructions: Vec<u64>,
    pub walls_s: Vec<f64>,
}

impl PassLog {
    /// The end-to-end metrics of a batch workload. Other tenants of the
    /// host slow some repeats by tens of percent, and the slowdowns come
    /// and go over seconds to minutes; an input's fastest repeat tracks the
    /// cost of the code, where its median tracks the neighbours. So op
    /// latencies are quantiles over inputs of each input's fastest repeat,
    /// and throughput is that of the fastest pass.
    pub fn metrics(&self, setup: Setup) -> Vec<(&'static str, f64)> {
        let best = fastest_repeats(&self.passes);
        let fastest = (0..self.walls_s.len())
            .min_by(|&a, &b| self.walls_s[a].total_cmp(&self.walls_s[b]))
            .expect("at least one pass");
        let wall_s = self.walls_s[fastest];
        let mut metrics = setup.metrics().to_vec();
        metrics.extend([
            ("op_p50_ms", quantile(&best, 0.5)),
            ("op_p90_ms", quantile(&best, 0.9)),
            ("ops_per_s", self.passes[fastest].len() as f64 / wall_s),
            ("sim_minstr_per_s", self.sim_instructions[fastest] as f64 / wall_s / 1e6),
        ]);
        metrics
    }
}
