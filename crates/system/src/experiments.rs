//! Experiment runners — one per table/figure of the paper's evaluation.
//!
//! Every function here regenerates the data behind a specific paper
//! element; the `coaxial-bench` crate formats and prints them. All
//! runners accept a [`Budget`] so callers can trade fidelity for runtime
//! (the defaults follow `COAXIAL_INSTR`/`COAXIAL_WARMUP` or the built-in
//! laptop-scale budget).
//!
//! Each runner builds a flat batch of [`RunSpec`]s — most through
//! [`run_grid`], workloads × configs — and dispatches it through
//! [`crate::runner::run_all`], so independent simulations spread across
//! host cores (`COAXIAL_JOBS`). Reports come back keyed by spec index,
//! which keeps every row assembly below deterministic.

use coaxial_cache::{CalmPolicy, PrefetchPolicy};
use coaxial_dram::{Channel, DramConfig, MemoryBackend};
use coaxial_sim::Cycle;
use coaxial_telemetry::TelemetryRecorder;
use coaxial_workloads::{mixes, PoissonTraffic, Workload};

use crate::config::SystemConfig;
use crate::runner::{self, RunSpec};
use crate::server::{RunReport, Simulation};

/// Instruction budget for one run.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub instructions: u64,
    pub warmup: u64,
}

impl Default for Budget {
    fn default() -> Self {
        Self {
            instructions: coaxial_sim::env::instructions(crate::server::DEFAULT_INSTRUCTIONS),
            warmup: coaxial_sim::env::warmup(crate::server::DEFAULT_WARMUP),
        }
    }
}

impl Budget {
    pub fn quick() -> Self {
        Self { instructions: 6_000, warmup: 1_000 }
    }

    /// A [`RunSpec`] for one homogeneous run under this budget.
    pub fn spec(&self, config: SystemConfig, w: &'static Workload) -> RunSpec {
        RunSpec::homogeneous(config, w, self.instructions, self.warmup)
    }

    /// Execute a single homogeneous run inline (no job pool) — handy for
    /// tests and one-off probes; batch work should go through
    /// [`crate::runner::run_all`].
    pub fn run(&self, config: SystemConfig, w: &'static Workload) -> RunReport {
        Simulation::new(config, w)
            .instructions_per_core(self.instructions)
            .warmup(self.warmup)
            .run()
    }
}

/// Run every workload under every config as one batch through
/// [`runner::run_all`]; returns each workload with its reports in config
/// order.
pub fn run_grid(
    workloads: impl IntoIterator<Item = &'static Workload>,
    configs: &[SystemConfig],
    budget: Budget,
) -> Vec<(&'static Workload, Vec<RunReport>)> {
    let ws: Vec<&'static Workload> = workloads.into_iter().collect();
    let specs: Vec<RunSpec> =
        ws.iter().flat_map(|&w| configs.iter().map(move |c| budget.spec(c.clone(), w))).collect();
    let mut reports = runner::run_all(&specs).into_iter();
    ws.into_iter().map(|w| (w, reports.by_ref().take(configs.len()).collect())).collect()
}

// ───────────────────────── Fig. 2a ──────────────────────────

/// One point of the load-latency curve.
#[derive(Debug, Clone)]
pub struct LoadLatencyPoint {
    pub target_utilization: f64,
    pub achieved_utilization: f64,
    pub avg_ns: f64,
    pub p90_ns: f64,
}

/// Fig. 2a: drive one DDR5-4800 channel with Poisson random traffic at
/// each target utilization and measure average and p90 latency.
pub fn fig2a_load_latency(utilizations: &[f64], horizon_cycles: Cycle) -> Vec<LoadLatencyPoint> {
    // Not a `Simulation`, so this uses the generic map rather than
    // `run_all`: each utilization point drives its own channel.
    runner::parallel_map(utilizations, |&u| {
        let mut ch = Channel::new(DramConfig::ddr5_4800());
        // 2:1 R:W as in the paper's framing of typical traffic.
        let mut gen = PoissonTraffic::new(u, 38.4, 0.33, 42);
        let mut backlog: std::collections::VecDeque<_> = Default::default();
        for now in 0..horizon_cycles {
            ch.tick(now);
            backlog.extend(gen.arrivals(now));
            while let Some(&req) = backlog.front() {
                match ch.try_enqueue(req) {
                    Ok(()) => {
                        backlog.pop_front();
                    }
                    Err(_) => break,
                }
            }
            while ch.pop_response(now).is_some() {}
        }
        let st = ch.stats();
        LoadLatencyPoint {
            target_utilization: u,
            achieved_utilization: st.bandwidth_gbs() / 38.4,
            avg_ns: coaxial_sim::cycles_f64_to_ns(ch.latency_hist.mean()),
            p90_ns: coaxial_sim::cycles_f64_to_ns(ch.latency_hist.percentile(90.0) as f64),
        }
    })
}

// ───────────────────────── Fig. 2b / Table IV / Fig. 9 ──────

/// One baseline workload characterization row (Figs. 2b, 9; Table IV).
#[derive(Debug, Clone)]
pub struct BaselineRow {
    pub workload: String,
    pub ipc: f64,
    pub mpki: f64,
    /// (on-chip, queuing, DRAM service, CXL) in ns. CXL is 0 here.
    pub breakdown_ns: (f64, f64, f64, f64),
    pub utilization: f64,
    pub read_gbs: f64,
    pub write_gbs: f64,
    pub paper_ipc: f64,
    pub paper_mpki: u32,
}

/// Figs. 2b & 9 and Table IV all come from baseline runs of every workload.
pub fn baseline_characterization(budget: Budget) -> Vec<BaselineRow> {
    run_grid(Workload::all(), &[SystemConfig::ddr_baseline()], budget)
        .into_iter()
        .map(|(w, rs)| {
            let r = &rs[0];
            BaselineRow {
                workload: w.name.to_string(),
                ipc: r.ipc,
                mpki: r.mpki,
                breakdown_ns: r.breakdown_ns,
                utilization: r.utilization,
                read_gbs: r.read_gbs,
                write_gbs: r.write_gbs,
                paper_ipc: w.paper_ipc,
                paper_mpki: w.paper_mpki,
            }
        })
        .collect()
}

// ───────────────────────── Fig. 5 ───────────────────────────

/// One per-workload comparison row (Fig. 5, and reused by Figs. 8/10).
#[derive(Debug, Clone)]
pub struct CompareRow {
    pub workload: String,
    pub speedup: f64,
    pub base: RunReport,
    pub coax: RunReport,
}

/// Run baseline and one COAXIAL config across all workloads.
pub fn compare_all(coax_cfg: impl Fn() -> SystemConfig, budget: Budget) -> Vec<CompareRow> {
    run_grid(Workload::all(), &[SystemConfig::ddr_baseline(), coax_cfg()], budget)
        .into_iter()
        .map(|(w, rs)| {
            let [base, coax]: [RunReport; 2] = rs.try_into().expect("two reports per workload");
            CompareRow {
                workload: w.name.to_string(),
                speedup: coax.speedup_over(&base),
                base,
                coax,
            }
        })
        .collect()
}

/// Fig. 5: COAXIAL-4x vs. the DDR baseline across all 36 workloads.
pub fn fig5_main(budget: Budget) -> Vec<CompareRow> {
    compare_all(SystemConfig::coaxial_4x, budget)
}

/// Geometric-mean speedup of a comparison set.
pub fn geomean_speedup(rows: &[CompareRow]) -> f64 {
    geomean(rows.iter().map(|r| r.speedup))
}

pub fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for v in values {
        if v > 0.0 {
            sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

// ───────────────────────── Fig. 6 ───────────────────────────

/// One workload-mix result (Fig. 6).
#[derive(Debug, Clone)]
pub struct MixRow {
    pub mix_id: u64,
    pub workloads: Vec<String>,
    /// IPC-ratio speedup (COAXIAL over baseline, mean per-core IPC).
    pub speedup: f64,
    /// Weighted-speedup ratio: Σ IPC_shared/IPC_alone on COAXIAL divided
    /// by the same sum on the baseline (the paper artifact's alternative
    /// multi-program metric; `None` unless requested).
    pub weighted_speedup_ratio: Option<f64>,
}

/// Fig. 6: ten random 12-workload mixes, COAXIAL-4x vs. baseline.
/// With `weighted`, also computes the weighted-speedup ratio, which needs
/// one isolated (single-active-core) run per distinct (workload, system)
/// pair — cached across mixes.
pub fn fig6_mixes_full(count: u64, budget: Budget, weighted: bool) -> Vec<MixRow> {
    use std::collections::{BTreeMap, BTreeSet};
    let mixes_v: Vec<Vec<&'static Workload>> = (0..count).map(|id| mixes::mix(id, 12)).collect();

    // Shared runs: baseline + COAXIAL per mix, one flat batch.
    let specs: Vec<RunSpec> = mixes_v
        .iter()
        .flat_map(|m| {
            [
                RunSpec::mix(SystemConfig::ddr_baseline(), m, budget.instructions, budget.warmup),
                RunSpec::mix(SystemConfig::coaxial_4x(), m, budget.instructions, budget.warmup),
            ]
        })
        .collect();
    let shared = runner::run_all(&specs);

    // Isolated runs for the weighted metric: one per distinct
    // (workload, system) pair across all mixes, also batched.
    let alone: BTreeMap<(&str, bool), f64> = if weighted {
        let mut seen = BTreeSet::new();
        let mut distinct: Vec<(&'static Workload, bool)> = Vec::new();
        for m in &mixes_v {
            for &w in m {
                for coax in [false, true] {
                    if seen.insert((w.name, coax)) {
                        distinct.push((w, coax));
                    }
                }
            }
        }
        let alone_specs: Vec<RunSpec> = distinct
            .iter()
            .map(|&(w, coax)| {
                let cfg =
                    if coax { SystemConfig::coaxial_4x() } else { SystemConfig::ddr_baseline() };
                budget.spec(cfg.with_active_cores(1), w)
            })
            .collect();
        distinct
            .iter()
            .zip(runner::run_all(&alone_specs))
            .map(|(&(w, coax), r)| ((w.name, coax), r.ipc))
            .collect()
    } else {
        BTreeMap::new()
    };

    mixes_v
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let (base, coax) = (&shared[2 * i], &shared[2 * i + 1]);
            let weighted_speedup_ratio = weighted.then(|| {
                let ws = |r: &RunReport, is_coax: bool| -> f64 {
                    r.per_core_ipc
                        .iter()
                        .zip(m.iter())
                        .map(|(&shared, w)| shared / alone[&(w.name, is_coax)].max(1e-9))
                        .sum::<f64>()
                };
                ws(coax, true) / ws(base, false).max(1e-9)
            });
            MixRow {
                mix_id: i as u64,
                workloads: m.iter().map(|w| w.name.to_string()).collect(),
                speedup: coax.speedup_over(base),
                weighted_speedup_ratio,
            }
        })
        .collect()
}

// ───────────────────────── Fig. 7 ───────────────────────────

/// CALM mechanisms evaluated in Fig. 7, in the paper's bar order.
pub fn calm_mechanisms() -> Vec<CalmPolicy> {
    vec![
        CalmPolicy::MapI,
        CalmPolicy::CalmR { r: 0.5 },
        CalmPolicy::CalmR { r: 0.6 },
        CalmPolicy::CalmR { r: 0.7 },
        CalmPolicy::Ideal,
    ]
}

/// One (system, mechanism) × workload cell of Fig. 7.
#[derive(Debug, Clone)]
pub struct CalmRow {
    pub workload: String,
    pub system: String,
    pub mechanism: String,
    /// Speedup vs. the same system with serial LLC/memory access.
    pub speedup_vs_serial: f64,
    pub false_pos_per_mem_access: f64,
    pub false_neg_per_llc_miss: f64,
}

/// Fig. 7: evaluate every CALM mechanism on both systems for the given
/// workloads (the paper shows 4 named workloads + the all-36 average).
pub fn fig7_calm(workload_names: &[&str], budget: Budget) -> Vec<CalmRow> {
    type ConfigFn = fn() -> SystemConfig;
    let systems: [(&str, ConfigFn); 2] = [
        ("baseline", SystemConfig::ddr_baseline as ConfigFn),
        ("COAXIAL", SystemConfig::coaxial_4x as ConfigFn),
    ];
    let mechs = calm_mechanisms();

    // One serial anchor + every mechanism, per (workload, system).
    let configs: Vec<SystemConfig> = systems
        .iter()
        .flat_map(|(_, mk)| {
            std::iter::once(CalmPolicy::Serial)
                .chain(mechs.iter().copied())
                .map(|p| mk().with_calm(p))
        })
        .collect();
    let mut rows = Vec::new();
    for (w, rs) in run_grid(named_workloads(workload_names), &configs, budget) {
        for ((sys_name, _), group) in systems.iter().zip(rs.chunks_exact(1 + mechs.len())) {
            let serial = &group[0];
            for (&mech, r) in mechs.iter().zip(&group[1..]) {
                rows.push(CalmRow {
                    workload: w.name.to_string(),
                    system: sys_name.to_string(),
                    mechanism: mech.label(),
                    speedup_vs_serial: r.speedup_over(serial),
                    false_pos_per_mem_access: r.calm.false_pos_per_mem_access(),
                    false_neg_per_llc_miss: r.calm.false_neg_per_llc_miss(),
                });
            }
        }
    }
    rows
}

// ───────────────────────── Fig. 8 ───────────────────────────

/// One workload's speedups across COAXIAL variants (Fig. 8).
#[derive(Debug, Clone)]
pub struct VariantRow {
    pub workload: String,
    pub coaxial_2x: f64,
    pub coaxial_4x: f64,
    pub coaxial_5x: f64,
    pub coaxial_asym: f64,
}

/// Fig. 8: COAXIAL-2x / -4x / -asym vs. the DDR baseline.
pub fn fig8_variants(budget: Budget) -> Vec<VariantRow> {
    let configs = [
        SystemConfig::ddr_baseline(),
        SystemConfig::coaxial_2x(),
        SystemConfig::coaxial_4x(),
        SystemConfig::coaxial_5x(),
        SystemConfig::coaxial_asym(),
    ];
    run_grid(Workload::all(), &configs, budget)
        .into_iter()
        .map(|(w, rs)| {
            let base = &rs[0];
            VariantRow {
                workload: w.name.to_string(),
                coaxial_2x: rs[1].speedup_over(base),
                coaxial_4x: rs[2].speedup_over(base),
                coaxial_5x: rs[3].speedup_over(base),
                coaxial_asym: rs[4].speedup_over(base),
            }
        })
        .collect()
}

// ───────────────────────── Fig. 10 ──────────────────────────

/// One workload's speedups for each CXL latency premium (Fig. 10 + §VII).
#[derive(Debug, Clone)]
pub struct LatencyRow {
    pub workload: String,
    /// (latency_ns, speedup) in the order requested.
    pub speedups: Vec<(f64, f64)>,
}

/// Fig. 10: COAXIAL-4x speedup under different unloaded CXL latency
/// budgets (the paper's 50/70 ns, plus §VII's 10 ns OMI projection).
pub fn fig10_latency_sensitivity(latencies_ns: &[f64], budget: Budget) -> Vec<LatencyRow> {
    let configs: Vec<SystemConfig> = std::iter::once(SystemConfig::ddr_baseline())
        .chain(latencies_ns.iter().map(|&ns| SystemConfig::coaxial_4x().with_cxl_latency_ns(ns)))
        .collect();
    run_grid(Workload::all(), &configs, budget)
        .into_iter()
        .map(|(w, rs)| {
            let base = &rs[0];
            let speedups = latencies_ns
                .iter()
                .zip(&rs[1..])
                .map(|(&ns, r)| (ns, r.speedup_over(base)))
                .collect();
            LatencyRow { workload: w.name.to_string(), speedups }
        })
        .collect()
}

// ───────────────────────── Fig. 11 ──────────────────────────

/// One workload's speedups as a function of active cores (Fig. 11).
#[derive(Debug, Clone)]
pub struct UtilizationRow {
    pub workload: String,
    /// (active_cores, speedup vs. baseline at same active cores).
    pub speedups: Vec<(usize, f64)>,
}

/// Fig. 11: vary the number of active cores; normalize COAXIAL to the
/// baseline *at the same utilization*.
pub fn fig11_core_utilization(active: &[usize], budget: Budget) -> Vec<UtilizationRow> {
    let configs: Vec<SystemConfig> = active
        .iter()
        .flat_map(|&n| {
            [
                SystemConfig::ddr_baseline().with_active_cores(n),
                SystemConfig::coaxial_4x().with_active_cores(n),
            ]
        })
        .collect();
    run_grid(Workload::all(), &configs, budget)
        .into_iter()
        .map(|(w, rs)| {
            let speedups = active
                .iter()
                .zip(rs.chunks_exact(2))
                .map(|(&n, pair)| (n, pair[1].speedup_over(&pair[0])))
                .collect();
            UtilizationRow { workload: w.name.to_string(), speedups }
        })
        .collect()
}

// ─────────────────── Telemetry latency breakdown ────────────────────

/// One system's fine-grained L2-miss latency attribution
/// (`coaxial breakdown`; the telemetry-subsystem refinement of the
/// paper's Fig. 2b four-way split).
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    pub config_name: String,
    pub workload: String,
    /// (component label, mean ns over *all* L2 misses in the measured
    /// window). Summing this column reproduces `total_ns` exactly — the
    /// conservation contract of [`coaxial_telemetry::MissRecord`].
    pub components_ns: Vec<(String, f64)>,
    /// Mean end-to-end L2-miss latency, ns.
    pub total_ns: f64,
    /// The same data folded into the paper's coarse categories:
    /// (on-chip, queuing, DRAM service, CXL interface), ns.
    pub paper_ns: (f64, f64, f64, f64),
    /// Attributed requests (primary L2 misses) in the measured window.
    pub requests: u64,
    pub llc_hits: u64,
    pub calm_requests: u64,
    /// The driver's own mean L2-miss latency, ns — reported alongside so
    /// tables can show the attribution matches the untelemetered number.
    pub report_total_ns: f64,
    pub ipc: f64,
}

/// Run each config on `workload` with a [`TelemetryRecorder`] attached and
/// return per-component latency breakdowns. Runs are independent, so the
/// batch spreads over `COAXIAL_JOBS` like every other sweep.
pub fn latency_breakdown(
    configs: &[SystemConfig],
    workload: &str,
    budget: Budget,
) -> Vec<BreakdownRow> {
    let w = Workload::by_name(workload).expect("workload exists");
    runner::parallel_map(configs, |cfg| {
        let (report, rec, _metrics) = Simulation::new(cfg.clone(), w)
            .instructions_per_core(budget.instructions)
            .warmup(budget.warmup)
            .run_with_telemetry(TelemetryRecorder::new());
        let att = &rec.attribution;
        BreakdownRow {
            config_name: cfg.name.clone(),
            workload: w.name.to_string(),
            components_ns: att
                .mean_ns_rows()
                .into_iter()
                .map(|(c, v)| (c.label().to_string(), v))
                .collect(),
            total_ns: coaxial_telemetry::time::cycles_f64_to_ns(att.total.mean()),
            paper_ns: att.paper_breakdown_ns(),
            requests: att.requests(),
            llc_hits: att.llc_hits,
            calm_requests: att.calm_requests,
            report_total_ns: report.l2_miss_latency_ns,
            ipc: report.ipc,
        }
    })
}

// ───────────────────────── Table V ──────────────────────────

/// Table V inputs: the measured average CPIs of both systems.
#[derive(Debug, Clone)]
pub struct Table5Inputs {
    pub baseline_cpi: f64,
    pub coaxial_cpi: f64,
}

/// Compute average CPIs from a Fig. 5 comparison set.
pub fn table5_inputs(rows: &[CompareRow]) -> Table5Inputs {
    let n = rows.len() as f64;
    let base: f64 = rows.iter().map(|r| 1.0 / r.base.ipc.max(1e-9)).sum::<f64>() / n;
    let coax: f64 = rows.iter().map(|r| 1.0 / r.coax.ipc.max(1e-9)).sum::<f64>() / n;
    Table5Inputs { baseline_cpi: base, coaxial_cpi: coax }
}

// ─────────────── Knob-coverage / sensitivity sweeps ───────────────
//
// These sweeps exist so that *every* public fidelity knob in the config
// structs is exercised end to end by at least one experiment — the
// contract coaxial-lint's E02 rule enforces statically (a knob the model
// reads but no experiment varies is untested fidelity: nothing would
// notice if its wiring broke). They double as data sources for the
// `ablations` bench target.

fn named_workloads(names: &[&str]) -> Vec<&'static Workload> {
    names.iter().map(|n| Workload::by_name(n).expect("workload exists")).collect()
}

/// One DRAM speed-grade sensitivity row: every [`coaxial_dram::DramTimings`]
/// parameter scaled together by `factor`.
#[derive(Debug, Clone)]
pub struct TimingScaleRow {
    pub factor: f64,
    pub base_geomean_ipc: f64,
    pub coax_geomean_ipc: f64,
}

/// Scale every DDR5 timing parameter by each factor and re-run both
/// systems — the "are the datasheet timings actually load-bearing?"
/// sensitivity check that silicon-validated CXL simulators run against
/// hardware.
pub fn dram_timing_scale(
    factors: &[f64],
    workload_names: &[&str],
    budget: Budget,
) -> Vec<TimingScaleRow> {
    let configs: Vec<SystemConfig> = factors
        .iter()
        .flat_map(|&f| {
            let dram = DramConfig::ddr5_4800().with_timing_scale(f);
            [
                SystemConfig::ddr_baseline().with_dram(dram.clone()),
                SystemConfig::coaxial_4x().with_dram(dram),
            ]
        })
        .collect();
    let grid = run_grid(named_workloads(workload_names), &configs, budget);
    let ipc = |i: usize| geomean(grid.iter().map(|(_, rs)| rs[i].ipc));
    factors
        .iter()
        .enumerate()
        .map(|(k, &factor)| TimingScaleRow {
            factor,
            base_geomean_ipc: ipc(2 * k),
            coax_geomean_ipc: ipc(2 * k + 1),
        })
        .collect()
}

/// One slice-size scaling row (beyond the paper's fixed 12-core slice).
#[derive(Debug, Clone)]
pub struct CoreScalingRow {
    pub cores: usize,
    pub base_geomean_ipc: f64,
    pub coax_geomean_ipc: f64,
    /// Geomean per-workload COAXIAL speedup at this slice size.
    pub speedup: f64,
}

/// Resize the simulated slice (mesh, LLC banking, and workload sharding
/// all rebuild around the count) and compare both systems at each size.
pub fn core_scaling(
    cores: &[usize],
    workload_names: &[&str],
    budget: Budget,
) -> Vec<CoreScalingRow> {
    let configs: Vec<SystemConfig> = cores
        .iter()
        .flat_map(|&n| {
            [SystemConfig::ddr_baseline().with_cores(n), SystemConfig::coaxial_4x().with_cores(n)]
        })
        .collect();
    let grid = run_grid(named_workloads(workload_names), &configs, budget);
    let pairs = |k: usize| grid.iter().map(move |(_, rs)| (&rs[2 * k], &rs[2 * k + 1]));
    cores
        .iter()
        .enumerate()
        .map(|(k, &n)| CoreScalingRow {
            cores: n,
            base_geomean_ipc: geomean(pairs(k).map(|(b, _)| b.ipc)),
            coax_geomean_ipc: geomean(pairs(k).map(|(_, c)| c.ipc)),
            speedup: geomean(pairs(k).map(|(b, c)| c.speedup_over(b))),
        })
        .collect()
}

/// One prefetch-policy row, normalized to the no-prefetch run of the same
/// system (the bandwidth-funds-latency-tolerance asymmetry check).
#[derive(Debug, Clone)]
pub struct PrefetchRow {
    pub policy: String,
    pub workload: String,
    /// Baseline-system IPC relative to baseline without prefetching.
    pub base_rel_ipc: f64,
    /// COAXIAL-4x IPC relative to COAXIAL-4x without prefetching.
    pub coax_rel_ipc: f64,
}

/// Run each prefetch policy on both systems across the workload set; rows
/// are IPC relative to the matching no-prefetch configuration.
pub fn prefetch_sweep(
    policies: &[PrefetchPolicy],
    workload_names: &[&str],
    budget: Budget,
) -> Vec<PrefetchRow> {
    let configs: Vec<SystemConfig> = std::iter::once(PrefetchPolicy::None)
        .chain(policies.iter().copied())
        .flat_map(|p| {
            [
                SystemConfig::ddr_baseline().with_prefetch(p),
                SystemConfig::coaxial_4x().with_prefetch(p),
            ]
        })
        .collect();
    let mut rows = Vec::new();
    for (w, rs) in run_grid(named_workloads(workload_names), &configs, budget) {
        let (base0, coax0) = (rs[0].ipc.max(1e-9), rs[1].ipc.max(1e-9));
        for (pi, p) in policies.iter().enumerate() {
            rows.push(PrefetchRow {
                policy: p.label(),
                workload: w.name.to_string(),
                base_rel_ipc: rs[2 + 2 * pi].ipc / base0,
                coax_rel_ipc: rs[3 + 2 * pi].ipc / coax0,
            });
        }
    }
    rows
}

/// One workload's L2 MSHR-count row: COAXIAL-4x IPC at each count,
/// relative to COAXIAL-4x at its default count (the per-core MLP ceiling).
#[derive(Debug, Clone)]
pub struct MshrRow {
    pub workload: String,
    /// (MSHRs per L2, IPC relative to the default count), in the order
    /// requested.
    pub rel_ipc: Vec<(usize, f64)>,
}

/// Run COAXIAL-4x at each L2 MSHR count across the workload set.
pub fn mshr_sweep(counts: &[usize], workload_names: &[&str], budget: Budget) -> Vec<MshrRow> {
    let configs: Vec<SystemConfig> = std::iter::once(SystemConfig::coaxial_4x())
        .chain(counts.iter().map(|&n| SystemConfig::coaxial_4x().with_l2_mshrs(n)))
        .collect();
    run_grid(named_workloads(workload_names), &configs, budget)
        .into_iter()
        .map(|(w, rs)| {
            let base = rs[0].ipc.max(1e-9);
            MshrRow {
                workload: w.name.to_string(),
                rel_ipc: counts.iter().zip(&rs[1..]).map(|(&n, r)| (n, r.ipc / base)).collect(),
            }
        })
        .collect()
}

/// One RNG-seed sensitivity row.
#[derive(Debug, Clone)]
pub struct SeedStabilityRow {
    pub seed: u64,
    pub geomean_ipc: f64,
}

/// Re-run COAXIAL-4x under different workload-generation/CALM_R seeds.
/// Same-seed determinism is proven elsewhere (bit-identical sweeps); this
/// measures how much the headline number moves across *different* draws —
/// it should be small, or the figures are measuring the seed.
pub fn seed_stability(
    seeds: &[u64],
    workload_names: &[&str],
    budget: Budget,
) -> Vec<SeedStabilityRow> {
    let configs: Vec<SystemConfig> =
        seeds.iter().map(|&s| SystemConfig::coaxial_4x().with_seed(s)).collect();
    let grid = run_grid(named_workloads(workload_names), &configs, budget);
    seeds
        .iter()
        .enumerate()
        .map(|(k, &seed)| SeedStabilityRow {
            seed,
            geomean_ipc: geomean(grid.iter().map(|(_, rs)| rs[k].ipc)),
        })
        .collect()
}

// ───────────────────────── Interval sampling ─────────────────

/// One workload's full-detail vs interval-sampled comparison.
#[derive(Debug, Clone)]
pub struct SamplingRow {
    pub workload: &'static str,
    /// IPC of the conventional full-detail run at the same budget.
    pub full_ipc: f64,
    /// Interval-sampled IPC estimate (mean of per-interval means).
    pub sampled_ipc: f64,
    /// 95 % confidence-interval half-width on `sampled_ipc`.
    pub ci_half: f64,
    pub intervals_run: u64,
    /// Share of the covered horizon executed on the timing model.
    pub detail_fraction: f64,
    /// Whether the full-detail IPC falls inside the sampled estimate's CI.
    pub within_ci: bool,
}

/// Run each workload twice over the same per-core horizon — once in full
/// detail, once interval-sampled (§DESIGN 5i) — and report how close the
/// sampled estimate lands. The differential test suite asserts on this;
/// the experiment exists so the comparison is reproducible from the CLI.
pub fn sampling_accuracy(
    workload_names: &[&str],
    budget: Budget,
    scfg: &crate::sampling::SamplingConfig,
) -> Vec<SamplingRow> {
    run_grid(named_workloads(workload_names), &[SystemConfig::coaxial_4x()], budget)
        .into_iter()
        .map(|(w, full)| {
            let f = &full[0];
            let sr = Simulation::new(SystemConfig::coaxial_4x(), w)
                .instructions_per_core(budget.instructions)
                .warmup(budget.warmup)
                .run_sampled(scfg);
            let s = sr.sampling;
            let covered = s.detail_instructions + s.fast_forward_instructions;
            SamplingRow {
                workload: w.name,
                full_ipc: f.ipc,
                sampled_ipc: s.ipc_mean,
                ci_half: s.ipc_ci_half,
                intervals_run: s.intervals_run,
                detail_fraction: if covered == 0 {
                    1.0
                } else {
                    #[allow(clippy::cast_precision_loss)]
                    {
                        s.detail_instructions as f64 / covered as f64
                    }
                },
                within_ci: (f.ipc - s.ipc_mean).abs() <= s.ipc_ci_half,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2a_latency_grows_with_load() {
        let pts = fig2a_load_latency(&[0.1, 0.5, 0.8], 300_000);
        assert_eq!(pts.len(), 3);
        assert!(pts[0].avg_ns < pts[1].avg_ns);
        assert!(pts[1].avg_ns < pts[2].avg_ns);
        // In the pre-saturation region, p90 grows faster than the mean
        // (paper Fig. 2a: queuing shows up in the tail first).
        let tail_growth = pts[1].p90_ns / pts[0].p90_ns;
        let mean_growth = pts[1].avg_ns / pts[0].avg_ns;
        assert!(tail_growth > mean_growth, "tail {tail_growth:.2}x vs mean {mean_growth:.2}x");
        // Unloaded latency is DRAM-like (tens of ns).
        assert!(pts[0].avg_ns > 15.0 && pts[0].avg_ns < 80.0, "{}", pts[0].avg_ns);
    }

    #[test]
    fn geomean_of_constants_is_constant() {
        assert!((geomean([2.0, 2.0, 2.0].into_iter()) - 2.0).abs() < 1e-12);
        assert!((geomean([1.0, 4.0].into_iter()) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quick_fig5_subset_shows_bandwidth_wins() {
        // Only the stream workloads, tiny budget — shape check.
        let budget = Budget::quick();
        let w = Workload::by_name("stream-add").unwrap();
        let base = budget.run(SystemConfig::ddr_baseline(), w);
        let coax = budget.run(SystemConfig::coaxial_4x(), w);
        assert!(coax.speedup_over(&base) > 1.2);
    }

    #[test]
    fn slower_dram_timings_lower_ipc() {
        let rows = dram_timing_scale(&[1.0, 2.0], &["stream-add"], Budget::quick());
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].base_geomean_ipc < rows[0].base_geomean_ipc,
            "doubling every DDR5 timing must hurt a stream workload: {rows:#?}"
        );
    }

    #[test]
    fn core_scaling_and_seed_stability_shapes() {
        let rows = core_scaling(&[4, 12], &["mcf"], Budget::quick());
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.speedup > 0.0 && r.coax_geomean_ipc > 0.0), "{rows:#?}");
        let seeds = seed_stability(&[1, 0xC0A51A1], &["mcf"], Budget::quick());
        assert_eq!(seeds.len(), 2);
        assert!(seeds.iter().all(|r| r.geomean_ipc > 0.0), "{seeds:#?}");
        // Different draws, same model: the headline number should not
        // swing wildly with the seed.
        let spread = seeds[0].geomean_ipc / seeds[1].geomean_ipc;
        assert!((0.5..2.0).contains(&spread), "seed-driven IPC spread {spread:.2}x");
    }

    #[test]
    fn prefetch_sweep_normalizes_to_no_prefetch() {
        let rows = prefetch_sweep(
            &[PrefetchPolicy::NextLine { degree: 2 }],
            &["stream-add"],
            Budget::quick(),
        );
        assert_eq!(rows.len(), 1);
        assert!(rows[0].base_rel_ipc > 0.0 && rows[0].coax_rel_ipc > 0.0, "{rows:#?}");
    }

    #[test]
    fn fewer_l2_mshrs_throttle_a_stream_workload() {
        let rows = mshr_sweep(&[2], &["stream-add"], Budget::quick());
        let (n, rel) = rows[0].rel_ipc[0];
        assert_eq!(n, 2);
        assert!(rel < 0.9, "2 MSHRs must cap a bandwidth-bound workload's MLP: {rows:#?}");
    }

    #[test]
    fn table5_inputs_average_cpis() {
        let budget = Budget::quick();
        let w = Workload::by_name("stream-copy").unwrap();
        let base = budget.run(SystemConfig::ddr_baseline(), w);
        let coax = budget.run(SystemConfig::coaxial_4x(), w);
        let rows = vec![CompareRow {
            workload: "stream-copy".into(),
            speedup: coax.speedup_over(&base),
            base,
            coax,
        }];
        let t5 = table5_inputs(&rows);
        assert!(t5.baseline_cpi > t5.coaxial_cpi, "COAXIAL must lower CPI here");
    }
}
