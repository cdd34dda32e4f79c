//! One function per paper experiment (and the ablation extension), each
//! printing its table in the paper's shape and writing CSV/SVG under
//! `target/paper-results/`.
//!
//! This is the only definition of each experiment: the bench targets
//! (`cargo bench -p coaxial-bench --bench <target>`) and `coaxial exp <id>`
//! both reach it through [`run`], so they print the same bytes for the same
//! budget. The model-side runners live in `coaxial_system::experiments`;
//! the comparison arithmetic and the paper's reference values live here.

use coaxial_cache::PrefetchPolicy;
use coaxial_dram::config::PagePolicy;
use coaxial_dram::DramConfig;
use coaxial_system::area::{AreaModel, ServerDesign};
use coaxial_system::experiments::{
    baseline_characterization, core_scaling, dram_timing_scale, fig10_latency_sensitivity,
    fig11_core_utilization, fig2a_load_latency, fig5_main, fig6_mixes_full, fig7_calm,
    fig8_variants, geomean, geomean_speedup, mshr_sweep, prefetch_sweep, run_grid,
    sampling_accuracy, seed_stability, table5_inputs, Budget,
};
use coaxial_system::power::table5;
use coaxial_system::{pinout, RunReport, SamplingConfig, SystemConfig};
use coaxial_workloads::Workload;

use crate::plot::{bar_chart, line_chart, write_svg, ChartOptions, Series};
use crate::{banner, f1, f2, pct, Table};

/// Every experiment id [`run`] accepts, in `coaxial exp` help order.
pub const IDS: &[&str] = &[
    "fig1",
    "fig2a",
    "fig2b",
    "table2",
    "table4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "table5",
    "ablations",
    "sampling",
];

/// Run experiment `id` at `budget`. An unknown id is an error naming the
/// valid ones.
pub fn run(id: &str, budget: Budget) -> Result<(), String> {
    match id {
        "fig1" => fig1(),
        "fig2a" => fig2a(),
        "fig2b" => fig2b(budget),
        "table2" => table2(),
        "table4" => table4(budget),
        "fig5" => fig5(budget),
        "fig6" => fig6(budget),
        "fig7" => fig7(budget),
        "fig8" => fig8(budget),
        "fig9" => fig9(budget),
        "fig10" => fig10(budget),
        "fig11" => fig11(budget),
        "table5" => table5_power(budget),
        "ablations" => ablations(budget),
        "sampling" => sampling(budget),
        _ => return Err(format!("unknown experiment '{id}' — available: {}", IDS.join(", "))),
    }
    Ok(())
}

/// A bench target's `main`: run `id` at the `COAXIAL_INSTR`/`COAXIAL_WARMUP`
/// budget, once every `COAXIAL_*` knob a run reads is valid.
pub fn bench(id: &str) {
    if let Err(e) = coaxial_system::engine::check_env().and_then(|()| run(id, Budget::default())) {
        panic!("{e}");
    }
}

/// A grouped speedup bar chart over workloads, with the parity line at 1.0.
fn speedup_svg(name: &str, title: &str, workloads: &[String], series: &[Series]) {
    let opts = ChartOptions {
        title: title.into(),
        y_label: "speedup".into(),
        reference_line: Some(1.0),
        ..Default::default()
    };
    write_svg(name, &bar_chart(workloads, series, &opts));
}

/// Fig. 1: bandwidth per processor pin for DDR and PCIe generations,
/// normalized to PCIe 1.0 (log-scale series in the paper).
pub fn fig1() {
    banner("Figure 1", "Bandwidth per processor pin, normalized to PCIe 1.0");
    let mut t = Table::new(&["interface", "family", "year", "GB/s", "pins", "GB/s/pin", "norm"]);
    let table = pinout::bandwidth_per_pin_table();
    for (p, (_, n)) in table.iter().zip(pinout::normalized_to_pcie1()) {
        t.row(&[
            p.name.to_string(),
            p.family.to_string(),
            p.year.to_string(),
            f2(p.bandwidth_gbs),
            p.pins.to_string(),
            format!("{:.4}", p.bw_per_pin()),
            f2(n),
        ]);
    }
    t.print();
    t.write_csv("fig1_bw_per_pin");

    // Fig. 1 as a per-family time series, log-y like the paper.
    let pcie1 = 0.0625;
    for family in ["DDR", "PCIe"] {
        let pts: Vec<(f64, f64)> = table
            .iter()
            .filter(|p| p.family == family)
            .map(|p| (p.year as f64, p.bw_per_pin() / pcie1))
            .collect();
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let svg = line_chart(
            &xs,
            &[Series::new(family, pts.iter().map(|p| p.1).collect())],
            &ChartOptions {
                title: format!("Fig. 1: {family} bandwidth per pin (norm. to PCIe 1.0)"),
                y_label: "norm. GB/s per pin".into(),
                log_y: true,
                ..Default::default()
            },
        );
        write_svg(&format!("fig1_{}", family.to_lowercase()), &svg);
    }
    println!(
        "\nPCIe 5.0 vs DDR5-4800 bandwidth/pin: {:.2}x (paper: ~4x)",
        pinout::pcie5_vs_ddr5_ratio()
    );
}

/// Fig. 2a: average and p90 memory access latency of one DDR5-4800
/// channel under Poisson random traffic, at varying bandwidth utilization.
/// `COAXIAL_F2A_CYCLES` sets the simulated cycles per point.
pub fn fig2a() {
    banner("Figure 2a", "DDR5-4800 load-latency curve (avg and p90)");
    let utils: Vec<f64> = (1..=17).map(|i| i as f64 * 0.05).collect();
    let horizon = coaxial_sim::env::env_u64("COAXIAL_F2A_CYCLES", 600_000);
    let pts = fig2a_load_latency(&utils, horizon);
    let mut t = Table::new(&["target util", "achieved util", "avg ns", "p90 ns"]);
    for p in &pts {
        t.row(&[
            pct(p.target_utilization),
            pct(p.achieved_utilization),
            f1(p.avg_ns),
            f1(p.p90_ns),
        ]);
    }
    t.print();
    t.write_csv("fig2a_load_latency");

    let xs: Vec<f64> = pts.iter().map(|p| p.target_utilization).collect();
    let svg = line_chart(
        &xs,
        &[
            Series::new("avg ns", pts.iter().map(|p| p.avg_ns).collect()),
            Series::new("p90 ns", pts.iter().map(|p| p.p90_ns).collect()),
        ],
        &ChartOptions {
            title: "Fig. 2a: DDR5-4800 load-latency curve".into(),
            y_label: "latency (ns)".into(),
            log_y: true,
            ..Default::default()
        },
    );
    write_svg("fig2a_load_latency", &svg);

    // Paper checkpoints: avg grows ~3x at 50% load and ~4x at 60%; p90
    // grows faster than avg.
    let at = |u: f64| {
        pts.iter().min_by_key(|p| coaxial_sim::trunc_u64((p.target_utilization - u).abs() * 1e6))
    };
    if let (Some(lo), Some(mid)) = (at(0.05), at(0.5)) {
        println!(
            "\navg growth at 50% load: {:.1}x (paper ~3x); p90 growth: {:.1}x (paper ~4.7x)",
            mid.avg_ns / lo.avg_ns,
            mid.p90_ns / lo.p90_ns
        );
    }
}

/// Fig. 2b: baseline L2-miss latency breakdown (on-chip, DRAM service,
/// queuing) and memory bandwidth utilization across all 36 workloads.
pub fn fig2b(budget: Budget) {
    banner("Figure 2b", "Baseline memory latency breakdown and bandwidth utilization per workload");
    let rows = baseline_characterization(budget);
    let mut t = Table::new(&[
        "workload",
        "on-chip ns",
        "queuing ns",
        "DRAM ns",
        "L2-miss ns",
        "BW util",
        "queue share",
    ]);
    let mut q_share_sum = 0.0;
    for r in &rows {
        let (on, q, s, _) = r.breakdown_ns;
        let total = on + q + s;
        let share = if total > 0.0 { q / total } else { 0.0 };
        q_share_sum += share;
        t.row(&[
            r.workload.clone(),
            f1(on),
            f1(q),
            f1(s),
            f1(total),
            pct(r.utilization),
            pct(share),
        ]);
    }
    t.print();
    t.write_csv("fig2b_latency_breakdown");
    println!(
        "\naverage queuing share of L2-miss latency: {} (paper: ~60%)",
        pct(q_share_sum / rows.len() as f64)
    );
}

/// Tables I, II, and III: component areas, candidate server designs, and
/// the simulated system parameters.
pub fn table2() {
    banner("Table I", "Relative component area (units of 1 MB LLC)");
    let m = AreaModel::table_i();
    let mut t1 = Table::new(&["component", "relative area"]);
    t1.row(&["L3 cache (1 MB)".into(), f2(m.llc_1mb)]);
    t1.row(&["Zen 3 core (incl. 512 KB L2)".into(), f2(m.zen3_core)]);
    t1.row(&["x8 PCIe (PHY + ctrl)".into(), f2(m.pcie_x8)]);
    t1.row(&["DDR channel (PHY + ctrl)".into(), f2(m.ddr_channel)]);
    t1.print();
    t1.write_csv("table1_area");

    banner("Table II", "DDR-based versus alternative COAXIAL server configurations");
    let mut t2 = Table::new(&[
        "design",
        "cores",
        "LLC/core MB",
        "DDR ch",
        "CXL x8 ch",
        "rel. BW",
        "rel. area",
        "comment",
    ]);
    for d in ServerDesign::table_ii() {
        t2.row(&[
            d.name.to_string(),
            d.cores.to_string(),
            f2(d.llc_mb_per_core),
            d.ddr_channels.to_string(),
            d.cxl_x8_channels.to_string(),
            if d.relative_bandwidth.is_nan() {
                "asym R/W".into()
            } else {
                format!("{:.0}x", d.relative_bandwidth)
            },
            f2(d.relative_area(&m)),
            d.comment.to_string(),
        ]);
    }
    t2.print();
    t2.write_csv("table2_configs");

    banner("Table III", "Simulated system parameters (12-core slice)");
    let mut t3 = Table::new(&["config", "DDR channels", "LLC MB/core", "peak GB/s", "CALM"]);
    for cfg in [
        SystemConfig::ddr_baseline(),
        SystemConfig::coaxial_2x(),
        SystemConfig::coaxial_4x(),
        SystemConfig::coaxial_5x(),
        SystemConfig::coaxial_asym(),
    ] {
        t3.row(&[
            cfg.name.clone(),
            cfg.ddr_channels().to_string(),
            f2(cfg.functional.llc_mb_per_core),
            f2(cfg.peak_bandwidth_gbs()),
            cfg.timing.calm.label(),
        ]);
    }
    t3.print();
    t3.write_csv("table3_parameters");
    println!(
        "\nCPU: 12 OoO cores, 2.4 GHz, 4-wide, 256-entry ROB; L1 32 KB/8-way/4-cycle; \
         L2 512 KB/8-way/8-cycle; LLC 16-way/20-cycle; NoC 2D mesh, 3 cycles/hop."
    );
}

/// Table IV: per-workload IPC and LLC MPKI on the DDR-based baseline,
/// printed alongside the paper's reference values.
pub fn table4(budget: Budget) {
    banner("Table IV", "Workload IPC and LLC MPKI on the DDR-based baseline");
    let rows = baseline_characterization(budget);
    let mut t = Table::new(&["workload", "IPC", "MPKI", "paper IPC", "paper MPKI"]);
    for r in &rows {
        t.row(&[
            r.workload.clone(),
            f2(r.ipc),
            format!("{:.0}", r.mpki),
            f2(r.paper_ipc),
            r.paper_mpki.to_string(),
        ]);
    }
    t.print();
    t.write_csv("table4_workloads");

    // Rank-correlation of measured vs paper MPKI (shape check).
    let ranks = |vals: Vec<f64>| {
        let mut order: Vec<(usize, f64)> = vals.into_iter().enumerate().collect();
        order.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut rank = vec![0usize; order.len()];
        for (r, (i, _)) in order.iter().enumerate() {
            rank[*i] = r;
        }
        rank
    };
    let rank_m = ranks(rows.iter().map(|r| r.mpki).collect());
    let rank_p = ranks(rows.iter().map(|r| r.paper_mpki as f64).collect());
    let n = rows.len();
    let d2: f64 = (0..n).map(|i| ((rank_m[i] as f64) - (rank_p[i] as f64)).powi(2)).sum();
    let rho = 1.0 - 6.0 * d2 / (n as f64 * (n as f64 * n as f64 - 1.0));
    println!("\nSpearman rank correlation of MPKI vs paper: {rho:.2} (1.0 = identical ordering)");
}

/// Fig. 5: COAXIAL-4x speedup over the DDR baseline (top), L2-miss latency
/// breakdown (middle), and memory bandwidth usage (bottom) for all 36
/// workloads.
pub fn fig5(budget: Budget) {
    banner("Figure 5", "COAXIAL-4x vs DDR baseline: speedup, latency breakdown, bandwidth");
    let rows = fig5_main(budget);

    let mut t = Table::new(&[
        "workload",
        "speedup",
        "base lat ns (on+q+dram)",
        "coax lat ns (on+q+dram+cxl)",
        "base GB/s",
        "coax GB/s",
        "base util",
        "coax util",
    ]);
    for r in &rows {
        let (ob, qb, sb, _) = r.base.breakdown_ns;
        let (oc, qc, sc, xc) = r.coax.breakdown_ns;
        t.row(&[
            r.workload.clone(),
            f2(r.speedup),
            format!("{} ({}+{}+{})", f1(ob + qb + sb), f1(ob), f1(qb), f1(sb)),
            format!("{} ({}+{}+{}+{})", f1(oc + qc + sc + xc), f1(oc), f1(qc), f1(sc), f1(xc)),
            f1(r.base.bandwidth_gbs),
            f1(r.coax.bandwidth_gbs),
            pct(r.base.utilization),
            pct(r.coax.utilization),
        ]);
    }
    t.print();
    t.write_csv("fig5_main_results");

    let cats: Vec<String> = rows.iter().map(|r| r.workload.clone()).collect();
    speedup_svg(
        "fig5_speedup",
        "Fig. 5 (top): COAXIAL-4x speedup over DDR baseline",
        &cats,
        &[Series::new("COAXIAL-4x speedup", rows.iter().map(|r| r.speedup).collect())],
    );

    let n = rows.len() as f64;
    let base_util: f64 = rows.iter().map(|r| r.base.utilization).sum::<f64>() / n;
    let coax_util: f64 = rows.iter().map(|r| r.coax.utilization).sum::<f64>() / n;
    let losers = rows.iter().filter(|r| r.speedup < 1.0).count();
    let max = rows.iter().max_by(|a, b| a.speedup.total_cmp(&b.speedup)).unwrap();
    let lat_reduction =
        1.0 - geomean(rows.iter().map(|r| r.coax.l2_miss_latency_ns / r.base.l2_miss_latency_ns));
    println!("\ngeomean speedup: {:.2}x   (paper: 1.39x, up to 3x)", geomean_speedup(&rows));
    println!("max speedup:     {:.2}x on {}", max.speedup, max.workload);
    println!("workloads losing performance: {losers}   (paper: 7)");
    println!(
        "avg bandwidth utilization: {} -> {}   (paper: 54% -> 34%)",
        pct(base_util),
        pct(coax_util)
    );
    println!("geomean L2-miss latency reduction: {}   (paper: 29%)", pct(lat_reduction));
}

/// Fig. 6: COAXIAL-4x speedup for ten random 12-workload mixes.
/// `COAXIAL_F6_WEIGHTED` adds the weighted-speedup column.
pub fn fig6(budget: Budget) {
    banner("Figure 6", "Workload-mix speedups (COAXIAL-4x over DDR baseline)");
    let weighted = coaxial_sim::env::env_flag("COAXIAL_F6_WEIGHTED", false);
    let rows = fig6_mixes_full(10, budget, weighted);
    let mut t = Table::new(&["mix", "speedup", "weighted-speedup", "workloads"]);
    for r in &rows {
        t.row(&[
            format!("mix-{}", r.mix_id),
            f2(r.speedup),
            r.weighted_speedup_ratio.map(f2).unwrap_or_else(|| "-".into()),
            r.workloads.join("+"),
        ]);
    }
    t.print();
    t.write_csv("fig6_mixes");

    let min = rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
    let max = rows.iter().map(|r| r.speedup).fold(0.0, f64::max);
    let gm = geomean(rows.iter().map(|r| r.speedup));
    println!(
        "\nmin/max/geomean mix speedup: {:.2}x / {:.2}x / {:.2}x   (paper: 1.5x / 1.9x / 1.7x)",
        min, max, gm
    );
    if !weighted {
        println!("(set COAXIAL_F6_WEIGHTED=1 for the weighted-speedup column)");
    }
}

/// Fig. 7: sensitivity to the CALM mechanism. (a) speedup of each
/// mechanism relative to serial LLC/memory access, on both the baseline
/// and COAXIAL; (b) decision quality (false positives per memory access,
/// false negatives per LLC miss).
///
/// The paper displays four workloads plus the 36-workload average; to
/// bound runtime this shows the same four and averages over a fixed
/// 12-workload sample (one per suite tier). `COAXIAL_F7_ALL` averages
/// over all 36 instead.
pub fn fig7(budget: Budget) {
    const SHOWN: [&str; 4] = ["gcc", "stream-copy", "lbm", "PageRank"];
    const SAMPLE: [&str; 12] = [
        "lbm",
        "gcc",
        "mcf",
        "bwaves",
        "PageRank",
        "Components",
        "BFS",
        "stream-copy",
        "stream-triad",
        "streamcluster",
        "masstree",
        "kmeans",
    ];
    banner("Figure 7", "CALM mechanism sensitivity (speedup vs serial; decision quality)");

    let avg_set: Vec<&str> = if coaxial_sim::env::env_flag("COAXIAL_F7_ALL", false) {
        Workload::all().iter().map(|w| w.name).collect()
    } else {
        SAMPLE.to_vec()
    };

    // Per-workload rows (Fig. 7a detail).
    let rows = fig7_calm(&SHOWN, budget);
    let mut t = Table::new(&[
        "workload",
        "system",
        "mechanism",
        "speedup vs serial",
        "FP/mem access",
        "FN/LLC miss",
    ]);
    for r in &rows {
        t.row(&[
            r.workload.clone(),
            r.system.clone(),
            r.mechanism.clone(),
            f2(r.speedup_vs_serial),
            pct(r.false_pos_per_mem_access),
            pct(r.false_neg_per_llc_miss),
        ]);
    }
    t.print();
    t.write_csv("fig7_calm");

    // Averages over the sample (Fig. 7a "avg" cluster).
    println!("\naverages over {} workloads:", avg_set.len());
    let avg_rows = fig7_calm(&avg_set, budget);
    let mut t2 = Table::new(&["system", "mechanism", "geomean speedup vs serial"]);
    for system in ["baseline", "COAXIAL"] {
        for mech in ["MAP-I", "CALM-50%", "CALM-60%", "CALM-70%", "ideal"] {
            let gm = geomean(
                avg_rows
                    .iter()
                    .filter(|r| r.system == system && r.mechanism == mech)
                    .map(|r| r.speedup_vs_serial),
            );
            t2.row(&[system.to_string(), mech.to_string(), f2(gm)]);
        }
    }
    t2.print();
    t2.write_csv("fig7_calm_avg");
    println!(
        "\npaper: CALM lifts COAXIAL from 1.28x to 1.39x over baseline; baseline's average \
         gain from CALM is negligible; CALM-70% FP ≈ 4% of memory accesses, FN ≈ 11% of LLC misses."
    );
}

/// Fig. 8: performance of COAXIAL-2x, COAXIAL-4x, and COAXIAL-asym,
/// normalized to the DDR baseline (plus the unsimulated-in-the-paper 5x).
pub fn fig8(budget: Budget) {
    banner("Figure 8", "COAXIAL design variants vs DDR baseline");
    let rows = fig8_variants(budget);
    let mut t = Table::new(&["workload", "COAXIAL-2x", "COAXIAL-4x", "COAXIAL-5x", "COAXIAL-asym"]);
    for r in &rows {
        t.row(&[
            r.workload.clone(),
            f2(r.coaxial_2x),
            f2(r.coaxial_4x),
            f2(r.coaxial_5x),
            f2(r.coaxial_asym),
        ]);
    }
    t.print();
    t.write_csv("fig8_variants");

    let cats: Vec<String> = rows.iter().map(|r| r.workload.clone()).collect();
    speedup_svg(
        "fig8_variants",
        "Fig. 8: COAXIAL variants vs DDR baseline",
        &cats,
        &[
            Series::new("2x", rows.iter().map(|r| r.coaxial_2x).collect()),
            Series::new("4x", rows.iter().map(|r| r.coaxial_4x).collect()),
            Series::new("asym", rows.iter().map(|r| r.coaxial_asym).collect()),
        ],
    );

    let gm2 = geomean(rows.iter().map(|r| r.coaxial_2x));
    let gm4 = geomean(rows.iter().map(|r| r.coaxial_4x));
    let gm5 = geomean(rows.iter().map(|r| r.coaxial_5x));
    let gma = geomean(rows.iter().map(|r| r.coaxial_asym));
    println!(
        "\ngeomean speedups: 2x = {:.2}, 4x = {:.2}, 5x = {:.2}, asym = {:.2}   \
         (paper: 1.17 / 1.39 / — / 1.52; asym beats 4x by ~13%; 5x is the iso-pin\n\
         Table II point the paper sizes but does not simulate)",
        gm2, gm4, gm5, gma
    );
    let asym_over_4x = gma / gm4;
    println!("asym over 4x: {:.1}%", (asym_over_4x - 1.0) * 100.0);
    let regressed = rows.iter().filter(|r| r.coaxial_asym < r.coaxial_4x * 0.97).count();
    println!("workloads hurt by asym's reduced write bandwidth: {regressed}   (paper: 0)");
}

/// Fig. 9: read/write bandwidth usage in the baseline system.
pub fn fig9(budget: Budget) {
    banner("Figure 9", "Read vs write bandwidth on the DDR baseline");
    let rows = baseline_characterization(budget);
    let mut t = Table::new(&["workload", "read GB/s", "write GB/s", "R:W ratio"]);
    let (mut rsum, mut wsum) = (0.0, 0.0);
    for r in &rows {
        rsum += r.read_gbs;
        wsum += r.write_gbs;
        t.row(&[
            r.workload.clone(),
            f1(r.read_gbs),
            f1(r.write_gbs),
            f2(r.read_gbs / r.write_gbs.max(1e-6)),
        ]);
    }
    t.print();
    t.write_csv("fig9_rw_split");
    println!("\naverage R:W ratio: {:.1}:1   (paper: 3.7:1)", rsum / wsum.max(1e-6));
}

/// Fig. 10: COAXIAL's performance under different unloaded CXL latency
/// premiums (50 ns default, 70 ns pessimistic), plus §VII's 10 ns OMI-like
/// projection.
pub fn fig10(budget: Budget) {
    const LATENCIES: [f64; 3] = [50.0, 70.0, 10.0];
    banner("Figure 10 (+§VII)", "Sensitivity to the CXL latency premium");
    let rows = fig10_latency_sensitivity(&LATENCIES, budget);
    let mut t = Table::new(&["workload", "50 ns", "70 ns", "10 ns (OMI-like)"]);
    for r in &rows {
        let s: Vec<f64> = r.speedups.iter().map(|(_, v)| *v).collect();
        t.row(&[r.workload.clone(), f2(s[0]), f2(s[1]), f2(s[2])]);
    }
    t.print();
    t.write_csv("fig10_latency_sensitivity");

    let cats: Vec<String> = rows.iter().map(|r| r.workload.clone()).collect();
    let series: Vec<Series> = LATENCIES
        .iter()
        .enumerate()
        .map(|(i, ns)| {
            Series::new(&format!("{ns:.0} ns"), rows.iter().map(|r| r.speedups[i].1).collect())
        })
        .collect();
    speedup_svg(
        "fig10_latency_sensitivity",
        "Fig. 10: sensitivity to the CXL latency premium",
        &cats,
        &series,
    );

    for (i, ns) in LATENCIES.iter().enumerate() {
        let gm = geomean(rows.iter().map(|r| r.speedups[i].1));
        let losers = rows.iter().filter(|r| r.speedups[i].1 < 1.0).count();
        println!("{ns:>5.0} ns: geomean {:.2}x, {losers} workloads lose", gm);
    }
    println!(
        "\npaper: 50 ns -> 1.39x (7 losers); 70 ns -> 1.26x (10 losers); \
         10 ns -> 1.71x (no loser with CALM)"
    );
}

/// Fig. 11: COAXIAL's performance as a function of active cores (8%, 33%,
/// 66%, and 100% server utilization), normalized to the baseline at the
/// same number of active cores.
pub fn fig11(budget: Budget) {
    const ACTIVE: [usize; 4] = [1, 4, 8, 12];
    banner("Figure 11", "Speedup vs active cores (1 / 4 / 8 / 12 of 12)");
    let rows = fig11_core_utilization(&ACTIVE, budget);
    let mut t = Table::new(&["workload", "1 core", "4 cores", "8 cores", "12 cores"]);
    for r in &rows {
        let s: Vec<f64> = r.speedups.iter().map(|(_, v)| *v).collect();
        t.row(&[r.workload.clone(), f2(s[0]), f2(s[1]), f2(s[2]), f2(s[3])]);
    }
    t.print();
    t.write_csv("fig11_core_utilization");

    let cats: Vec<String> = rows.iter().map(|r| r.workload.clone()).collect();
    let series: Vec<Series> = ACTIVE
        .iter()
        .enumerate()
        .map(|(i, n)| {
            Series::new(&format!("{n} cores"), rows.iter().map(|r| r.speedups[i].1).collect())
        })
        .collect();
    speedup_svg("fig11_core_utilization", "Fig. 11: speedup vs active cores", &cats, &series);

    for (i, n) in ACTIVE.iter().enumerate() {
        let gm = geomean(rows.iter().map(|r| r.speedups[i].1));
        println!("{n:>2} active cores: geomean speedup {:.2}x", gm);
    }
    println!(
        "\npaper: 1 core -> 0.73x (27% slowdown); 8 cores (66% util, 8:1 core:MC) -> 1.17x; \
         12 cores -> 1.39x"
    );
}

/// Table V: energy/power comparison for the 144-core server, fed by the
/// CPIs measured on the simulated 12-core slice.
pub fn table5_power(budget: Budget) {
    banner("Table V", "Energy/power comparison for the 144-core server");
    let inputs = table5_inputs(&fig5_main(budget));
    let (base, coax) = table5(inputs.baseline_cpi, inputs.coaxial_cpi);

    let mut t = Table::new(&["component", "Baseline", "COAXIAL"]);
    let w = |x: f64| format!("{x:.0} W");
    t.row(&["Cores + L1 + L2".into(), w(base.core_w), w(coax.core_w)]);
    t.row(&["DDR5 MC & PHY".into(), w(base.ddr_mc_w), w(coax.ddr_mc_w)]);
    t.row(&["LLC (leakage+access)".into(), w(base.llc_w), w(coax.llc_w)]);
    t.row(&["CXL interface".into(), w(base.cxl_w), w(coax.cxl_w)]);
    t.row(&["DDR5 DIMMs".into(), w(base.dimm_w), w(coax.dimm_w)]);
    t.row(&["Total system power".into(), w(base.total_w), w(coax.total_w)]);
    t.row(&["Average CPI (measured)".into(), f2(base.cpi), f2(coax.cpi)]);
    t.row(&["Relative perf/W".into(), "1.00".into(), f2(coax.perf_per_watt / base.perf_per_watt)]);
    t.row(&[
        "EDP (lower=better)".into(),
        format!("{:.0}", base.edp),
        format!("{:.0} ({:.2}x)", coax.edp, coax.edp / base.edp),
    ]);
    t.row(&[
        "ED2P (lower=better)".into(),
        format!("{:.0}", base.ed2p),
        format!("{:.0} ({:.2}x)", coax.ed2p, coax.ed2p / base.ed2p),
    ]);
    t.print();
    t.write_csv("table5_power_edp");
    println!("\npaper: 646 W vs 931 W; CPI 2.05 vs 1.48; perf/W 0.96; EDP 0.75x; ED2P 0.53x");
}

/// Extension: ablation studies of design choices the paper fixes.
///
/// 1. **DRAM page policy** — open vs open-adaptive vs closed rows;
/// 2. **FR-FCFS scheduling window** — how far the picker looks;
/// 3. **CALM_R monitoring epoch** — reactivity vs estimate noise;
/// 4. **L2 MSHR count** — per-core MLP ceiling;
/// 5. **L2 prefetching** — next-line and IP-stride on both systems,
///    demonstrating the paper's bandwidth-funds-latency-tolerance thesis
///    with a second mechanism beside CALM;
/// 6. **DRAM speed grade** — every DDR5 timing scaled together;
/// 7. **slice size** — core-count scaling of the COAXIAL win;
/// 8. **seed stability** — headline-number sensitivity to the RNG draw.
///
/// Sections 1–4 run at `budget`; 5–8 run its instruction count with no
/// detailed warm-up (the prefill still runs).
pub fn ablations(budget: Budget) {
    const WORKLOADS: [&str; 6] = ["stream-triad", "lbm", "PageRank", "mcf", "masstree", "kmeans"];
    let sweep_budget = Budget { warmup: 0, ..budget };
    let workloads = || WORKLOADS.iter().map(|n| Workload::by_name(n).expect("workload exists"));
    // IPC under config `i` relative to config 0, for one workload's grid row.
    let rel = |rs: &[RunReport], i: usize| f2(rs[i].ipc / rs[0].ipc);
    banner("Ablations", "Design-choice sensitivity (extension; not a paper figure)");

    // ── 1. Page policy ────────────────────────────────────────────────
    println!("1) DRAM page policy (baseline IPC, relative to open-adaptive)\n");
    let mut t = Table::new(&["workload", "open-adaptive", "open", "closed"]);
    let base_with = |dram: DramConfig| SystemConfig::ddr_baseline().with_dram(dram);
    let configs = [
        SystemConfig::ddr_baseline(),
        base_with(DramConfig::ddr5_4800().with_page_policy(PagePolicy::Open)),
        base_with(DramConfig::ddr5_4800().with_page_policy(PagePolicy::Closed)),
    ];
    for (w, rs) in run_grid(workloads(), &configs, budget) {
        t.row(&[w.name.into(), "1.00".into(), rel(&rs, 1), rel(&rs, 2)]);
    }
    t.print();
    t.write_csv("ablation_page_policy");

    // ── 2. Scheduler window ───────────────────────────────────────────
    println!("\n2) FR-FCFS scheduling window (baseline IPC relative to window=16)\n");
    let mut t = Table::new(&["workload", "w=1 (FCFS)", "w=4", "w=16", "w=48"]);
    let window = |w: usize| base_with(DramConfig::ddr5_4800().with_sched_window(w));
    let configs = [SystemConfig::ddr_baseline(), window(1), window(4), window(48)];
    for (w, rs) in run_grid(workloads(), &configs, budget) {
        t.row(&[w.name.into(), rel(&rs, 1), rel(&rs, 2), "1.00".into(), rel(&rs, 3)]);
    }
    t.print();
    t.write_csv("ablation_sched_window");

    // ── 3. CALM epoch ─────────────────────────────────────────────────
    println!("\n3) CALM_R epoch (COAXIAL-4x IPC relative to the 8192-cycle default)\n");
    let mut t = Table::new(&["workload", "1k", "8k (default)", "64k"]);
    let configs = [
        SystemConfig::coaxial_4x(),
        SystemConfig::coaxial_4x().with_calm_epoch(1024),
        SystemConfig::coaxial_4x().with_calm_epoch(65536),
    ];
    for (w, rs) in run_grid(workloads(), &configs, budget) {
        t.row(&[w.name.into(), rel(&rs, 1), "1.00".into(), rel(&rs, 2)]);
    }
    t.print();
    t.write_csv("ablation_calm_epoch");

    // ── 4. MSHR count ─────────────────────────────────────────────────
    println!("\n4) L2 MSHRs (COAXIAL-4x IPC relative to 16; MLP ceiling)\n");
    let mut t = Table::new(&["workload", "4", "8", "16 (default)", "32"]);
    for r in mshr_sweep(&[4, 8, 32], &WORKLOADS, budget) {
        let at = |i: usize| f2(r.rel_ipc[i].1);
        t.row(&[r.workload.clone(), at(0), at(1), "1.00".into(), at(2)]);
    }
    t.print();
    t.write_csv("ablation_mshrs");

    // ── 5. Prefetching ────────────────────────────────────────────────
    println!("\n5) L2 prefetching (IPC relative to no-prefetch, per system)\n");
    let mut t = Table::new(&[
        "workload",
        "base next-line",
        "base ip-stride",
        "coax next-line",
        "coax ip-stride",
    ]);
    let policies = [PrefetchPolicy::NextLine { degree: 2 }, PrefetchPolicy::IpStride { degree: 4 }];
    let rows = prefetch_sweep(&policies, &WORKLOADS, sweep_budget);
    let mut gains: [Vec<f64>; 4] = Default::default();
    for (wl, pair) in WORKLOADS.iter().zip(rows.chunks_exact(policies.len())) {
        let vals = [
            pair[0].base_rel_ipc,
            pair[1].base_rel_ipc,
            pair[0].coax_rel_ipc,
            pair[1].coax_rel_ipc,
        ];
        for (v, g) in vals.iter().zip(gains.iter_mut()) {
            g.push(*v);
        }
        t.row(&[(*wl).into(), f2(vals[0]), f2(vals[1]), f2(vals[2]), f2(vals[3])]);
    }
    let mut geo = vec!["geomean".to_string()];
    geo.extend(gains.iter().map(|g| f2(geomean(g.iter().copied()))));
    t.row(&geo);
    t.print();
    t.write_csv("ablation_prefetch");
    println!(
        "\nexpectation: prefetch gains should be larger (or losses smaller) on COAXIAL than \
         on the bandwidth-starved baseline — the same asymmetry the paper shows for CALM."
    );

    // ── 6. DRAM speed grade ───────────────────────────────────────────
    println!("\n6) DRAM speed grade (geomean IPC; every DDR5 timing scaled together)\n");
    let mut t = Table::new(&["timing scale", "baseline", "COAXIAL-4x"]);
    for r in dram_timing_scale(&[0.75, 1.0, 1.5], &WORKLOADS, sweep_budget) {
        t.row(&[format!("{:.2}x", r.factor), f2(r.base_geomean_ipc), f2(r.coax_geomean_ipc)]);
    }
    t.print();
    t.write_csv("ablation_dram_speed_grade");

    // ── 7. Slice size ─────────────────────────────────────────────────
    println!("\n7) slice size (geomean IPC and COAXIAL speedup per core count)\n");
    let mut t = Table::new(&["cores", "baseline", "COAXIAL-4x", "speedup"]);
    for r in core_scaling(&[6, 12, 24], &WORKLOADS, sweep_budget) {
        t.row(&[
            r.cores.to_string(),
            f2(r.base_geomean_ipc),
            f2(r.coax_geomean_ipc),
            f2(r.speedup),
        ]);
    }
    t.print();
    t.write_csv("ablation_core_scaling");

    // ── 8. Seed stability ─────────────────────────────────────────────
    println!("\n8) seed stability (COAXIAL-4x geomean IPC per RNG seed)\n");
    let mut t = Table::new(&["seed", "geomean IPC"]);
    for r in seed_stability(&[0xC0A51A1, 1, 2, 3], &WORKLOADS, sweep_budget) {
        t.row(&[format!("{:#x}", r.seed), f2(r.geomean_ipc)]);
    }
    t.print();
    t.write_csv("ablation_seed_stability");
}

/// Interval sampling against full detail on COAXIAL-4x at `budget`
/// (`coaxial exp` only; not a paper figure). Laptop-scale interval shape,
/// warm == measure per the bias calibration in the sampling module docs.
pub fn sampling(budget: Budget) {
    banner("Sampling", "Interval-sampled vs full-detail IPC on COAXIAL-4x (extension)");
    let scfg = SamplingConfig { intervals: 5, measure: 2_000, warm: 2_000, ci_target: 0.0 };
    let mut t = Table::new(&[
        "workload",
        "full IPC",
        "sampled IPC",
        "95% CI half",
        "intervals",
        "detail share",
        "full in CI",
    ]);
    for r in sampling_accuracy(&["mcf", "stream-add"], budget, &scfg) {
        t.row(&[
            r.workload.into(),
            format!("{:.3}", r.full_ipc),
            format!("{:.3}", r.sampled_ipc),
            format!("{:.3}", r.ci_half),
            r.intervals_run.to_string(),
            pct(r.detail_fraction),
            if r.within_ci { "yes" } else { "no" }.into(),
        ]);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_match_the_dispatch() {
        // Every quoted `"<id>" =>` arm of `run`, in source order.
        let src = include_str!("paper.rs");
        let body = &src[src.find("match id {").unwrap()..src.find("_ => return Err").unwrap()];
        let arms: Vec<&str> =
            body.lines().filter_map(|l| l.trim().strip_prefix('"')?.split('"').next()).collect();
        assert_eq!(arms, IDS);
    }

    #[test]
    fn every_paper_bench_target_names_a_registered_id() {
        // Each `[[bench]]` but the engine-throughput one is `paper::bench("<id>")`
        // for the id its target name starts with.
        let manifest = include_str!("../Cargo.toml");
        let names: Vec<&str> = manifest
            .split("[[bench]]")
            .skip(1)
            .filter_map(|b| b.lines().find_map(|l| l.strip_prefix("name = ")))
            .map(|n| n.trim_matches('"'))
            .filter(|&n| n != "sim_throughput")
            .collect();
        assert_eq!(names.len(), 14, "{names:?}");
        for name in names {
            let id = name.split('_').next().unwrap();
            assert!(IDS.contains(&id), "bench `{name}` has no experiment id `{id}`");
            let path = format!("{}/benches/{name}.rs", env!("CARGO_MANIFEST_DIR"));
            let main = std::fs::read_to_string(&path).unwrap();
            assert!(main.contains(&format!("paper::bench(\"{id}\")")), "{path}: {main}");
        }
    }

    #[test]
    fn unknown_ids_are_an_error_naming_the_valid_ones() {
        let err = run("fig99", Budget::quick()).unwrap_err();
        assert!(err.contains("fig99") && err.contains("ablations"), "{err}");
    }
}
