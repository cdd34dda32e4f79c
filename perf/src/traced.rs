//! The traced run shared by every workload: production runs of the
//! workload's representative jobs, each profiled layer by layer by a
//! replica that must reproduce its report (see [`crate::profile`]).

use std::time::Instant;

use coaxial_gateway::{report_to_json, request::parse_run};
use coaxial_system::RunSpec;
use coaxial_telemetry::{EventTracer, NullTelemetry};

use crate::job::Job;
use crate::profile::{self, Calibration, Layer, SpanSums, SpecProfile, LAYERS};
use crate::run::{Measured, Settings};
use crate::stats::{mean, median};

/// Totals over every replicated spec.
#[derive(Default)]
struct Totals {
    cal: Calibration,
    specs: u64,
    sampled: SpanSums,
    /// What the clock-reading cycles cost untraced.
    sampled_untraced_ns: f64,
    /// Per-layer self time of the untraced loops, filled in by `finish`.
    layer_ns: [f64; LAYERS],
    calls: [u64; LAYERS],
    traced_ns: f64,
    untraced_ns: f64,
    ticks: u64,
    visited: u64,
    skipped: u64,
    final_cycles: u64,
    gen_ns: f64,
    prefill_ns: f64,
    accesses: u64,
    export_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    import_ms: Vec<f64>,
    state_mb: Vec<f64>,
    // Production runs.
    run_ms: Vec<f64>,
    server_prefill_ms: Vec<f64>,
    server_loop_ms: Vec<f64>,
    restored: u64,
    busy_s: f64,
    capacity_s: f64,
    parse_us: Vec<f64>,
    emit_us: Vec<f64>,
}

impl Totals {
    fn add(&mut self, p: &SpecProfile) {
        self.specs += 1;
        self.sampled.add(&p.sampled);
        self.sampled_untraced_ns += p.untraced_sampled_ns();
        for (t, c) in self.calls.iter_mut().zip(p.calls) {
            *t += c;
        }
        self.traced_ns += p.traced_loop_ns;
        self.untraced_ns += p.untraced_loop_ns;
        self.ticks += p.visited_cycles * p.cores;
        self.visited += p.visited_cycles;
        self.skipped += p.skipped_cycles;
        self.final_cycles += p.final_cycles;
        self.gen_ns += p.gen_ns;
        self.prefill_ns += p.prefill_ns;
        self.accesses += p.accesses;
        self.export_ms.push(p.export_ns / 1e6);
        self.encode_ms.push(p.encode_ns / 1e6);
        self.decode_ms.push(p.decode_ns / 1e6);
        self.import_ms.push(p.import_ns / 1e6);
        self.state_mb.push(p.state_bytes as f64 / 1e6);
    }

    /// Per-layer self time of the untraced loops: the corrected self
    /// times of the clock-reading cycles, scaled up to every cycle.
    fn finish(&mut self) {
        let corrected = self.sampled.corrected(self.cal, self.sampled_untraced_ns);
        let total: f64 = corrected.iter().sum();
        if total > 0.0 {
            self.layer_ns = corrected.map(|c| c / total * self.untraced_ns);
        }
    }

    fn layer(&self, l: Layer) -> f64 {
        self.layer_ns[l as usize]
    }

    fn per_call(&self, l: Layer) -> f64 {
        match self.calls[l as usize] {
            0 => 0.0,
            n => self.layer(l) / n as f64,
        }
    }

    fn share(&self, l: Layer) -> f64 {
        self.layer(l) / self.untraced_ns
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let runs = self.run_ms.len() as f64;
        vec![
            ("cpu.self_ms", self.layer(Layer::Cpu) / 1e6),
            ("cpu.ticks", self.ticks as f64),
            ("cpu.ns_per_tick", self.layer(Layer::Cpu) / self.ticks as f64),
            ("cpu.share", self.share(Layer::Cpu)),
            ("cache.self_ms", self.layer(Layer::Cache) / 1e6),
            ("cache.ns_per_tick", self.layer(Layer::Cache) / self.visited as f64),
            ("cache.share", self.share(Layer::Cache)),
            ("cache.prefill_ns_per_access", self.prefill_ns / self.accesses as f64),
            ("dram.self_ms", self.layer(Layer::Dram) / 1e6),
            ("dram.calls", self.calls[Layer::Dram as usize] as f64),
            ("dram.ns_per_call", self.per_call(Layer::Dram)),
            ("dram.share", self.share(Layer::Dram)),
            ("cxl.self_ms", self.layer(Layer::Cxl) / 1e6),
            ("cxl.calls", self.calls[Layer::Cxl as usize] as f64),
            ("cxl.ns_per_call", self.per_call(Layer::Cxl)),
            ("cxl.share", self.share(Layer::Cxl)),
            ("engine.self_ms", self.layer(Layer::Engine) / 1e6),
            ("engine.share", self.share(Layer::Engine)),
            ("engine.visited_cycles", self.visited as f64),
            ("engine.skipped_frac", self.skipped as f64 / self.final_cycles as f64),
            ("engine.ns_per_cycle", self.untraced_ns / self.visited as f64),
            ("residual.share", self.share(Layer::Residual)),
            ("trace.overhead_frac", self.traced_ns / self.untraced_ns - 1.0),
            ("workloads.gen_ns_per_access", self.gen_ns / self.accesses as f64),
            ("checkpoint.export_ms", mean(&self.export_ms)),
            ("checkpoint.encode_ms", mean(&self.encode_ms)),
            ("checkpoint.decode_ms", mean(&self.decode_ms)),
            ("checkpoint.import_ms", mean(&self.import_ms)),
            ("checkpoint.state_mb", mean(&self.state_mb)),
            ("checkpoint.hit_ratio", self.restored as f64 / runs),
            ("server.prefill_ms", mean(&self.server_prefill_ms)),
            ("server.loop_ms", mean(&self.server_loop_ms)),
            ("runner.busy_frac", self.busy_s / self.capacity_s),
            ("runner.run_p50_ms", median(&self.run_ms)),
            ("gateway.parse_us", median(&self.parse_us)),
            ("gateway.emit_us", median(&self.emit_us)),
        ]
    }
}

/// Profile batches of jobs until the run's time is up (at least one
/// batch). `next(k)` builds batch `k`; `name` labels the span dump
/// written to `target/perf/<name>.trace.json`.
pub fn profile_batches(
    s: &Settings,
    name: &str,
    mut next: impl FnMut(u64) -> Vec<Job>,
) -> Measured {
    let mut out = Measured::default();
    let cal = profile::calibrate();
    let mut t = Totals { cal, ..Totals::default() };
    let mut dump: Option<EventTracer> = None;
    let t0 = Instant::now();
    for k in 0.. {
        let jobs = next(k);
        let specs: Vec<RunSpec> = jobs.iter().map(Job::spec).collect();
        let tb = Instant::now();
        let production = coaxial_system::parallel_map(&specs, |spec| {
            let t = Instant::now();
            let (report, _, reg) = spec.simulation().run_with_telemetry(NullTelemetry);
            (report, reg, t.elapsed().as_secs_f64())
        });
        let workers = coaxial_sim::env::jobs().min(specs.len()) as f64;
        t.capacity_s += workers * tb.elapsed().as_secs_f64();
        for (i, (job, (report, reg, wall_s))) in jobs.iter().zip(production).enumerate() {
            t.busy_s += wall_s;
            t.run_ms.push(wall_s * 1e3);
            let counter = |path: &str| reg.counter(path).unwrap_or(0) as f64;
            t.server_prefill_ms.push(counter("server.prefill.wall_ns") / 1e6);
            t.server_loop_ms.push(counter("server.prefill.loop_wall_ns") / 1e6);
            t.restored += reg.counter("server.prefill.restored").unwrap_or(0);

            let body = job.body();
            let tp = Instant::now();
            let parsed = parse_run(body.as_bytes());
            t.parse_us.push(tp.elapsed().as_secs_f64() * 1e6);
            out.check(parsed.is_ok(), || format!("gateway rejected {body}"));
            let te = Instant::now();
            std::hint::black_box(report_to_json(&report));
            t.emit_us.push(te.elapsed().as_secs_f64() * 1e6);

            let first = dump.is_none() && i == 0;
            let mut p = profile::replicate(&specs[i], &report, t.specs % 2 == 1, first);
            out.check(p.matches, || {
                format!("replica diverged from the production report for {body}")
            });
            if first {
                dump = p.dump.take();
            }
            t.add(&p);
        }
        if s.expired(t0) {
            break;
        }
    }
    t.finish();
    out.metrics = t.metrics();

    // Layer self times plus the residual make up the untraced loop wall by
    // construction (`finish` scales them to it), so the check that can fail
    // is the residual's size: the layers must account for at least 90 % of
    // the loop.
    let residual = t.share(Layer::Residual);
    out.check(residual.abs() <= 0.10, || {
        format!("residual {:.1} % of the untraced loop wall is above 10 %", 100.0 * residual)
    });
    let sampled_cycles = t.sampled.spans[Layer::Residual as usize] as f64;
    let raw: f64 = t.sampled.self_ns.iter().sum();
    out.note(format!(
        "layers {:.1} %, residual {:.1} % of the untraced loop wall {:.1} ms; traced loop wall {:.1} ms \
         (trace overhead {:.1} %)",
        100.0 * (1.0 - residual),
        100.0 * residual,
        t.untraced_ns / 1e6,
        t.traced_ns / 1e6,
        100.0 * (t.traced_ns / t.untraced_ns - 1.0),
    ));
    out.note(format!(
        "clock cost: on the {sampled_cycles} clock-reading cycles of {} visited ({} specs) the raw \
         self times sum to {:.2} ms, the same cycles untraced to {:.2} ms; an empty span adds \
         {:.1} ns to itself and {:.1} ns to its parent, and the correction removes {:.2} ms, \
         {:.2}x the calibrated cost of its spans",
        t.visited,
        t.specs,
        raw / 1e6,
        t.sampled_untraced_ns / 1e6,
        cal.span_ns,
        cal.child_ns,
        (raw - t.sampled_untraced_ns).max(0.0) / 1e6,
        t.sampled.clock_scale(cal, t.sampled_untraced_ns),
    ));
    if let Some(d) = dump {
        let path = format!("target/perf/{name}.trace.json");
        let written = std::fs::create_dir_all("target/perf")
            .and_then(|()| std::fs::write(&path, d.export_chrome_json()));
        match written {
            Ok(()) => out.note(format!("span dump: {path} ({} spans)", d.len())),
            Err(e) => out.note(format!("span dump not written to {path}: {e}")),
        }
    }
    out
}
