//! System-level telemetry contracts:
//!
//! * **Equivalence** — attaching a [`TelemetryRecorder`] to a full
//!   `Simulation` run must not change a single bit of the [`RunReport`].
//!   `run()` and `run_with_telemetry(...)` share one code path whose only
//!   difference is the sink type parameter, and every stamping site is
//!   guarded by `TelemetrySink::ENABLED` — this test holds that contract
//!   at the outermost layer, so figure/table outputs are byte-identical
//!   with telemetry on or off.
//! * **Conservation** — per-component cycles of every recorded request sum
//!   exactly to its end-to-end L2-miss latency, all the way up through the
//!   driver (prefill, warmup reset, cycle skipping included).
//! * **Metrics** — the harvested registry agrees with the report's own
//!   statistics and carries backend and prefill-cache counters.
//! * **Golden trace** — the Chrome trace `coaxial trace mcf` writes at
//!   this budget is pinned across commits by its digest in
//!   `tests/golden_trace_digest.txt`.

mod golden;

use coaxial_system::experiments::{latency_breakdown, Budget};
use coaxial_system::{RunReport, Simulation, SystemConfig};
use coaxial_telemetry::{TelemetryRecorder, COMPONENTS};
use coaxial_workloads::Workload;

const INSTR: u64 = 4_000;
const WARMUP: u64 = 1_000;

fn sim(cfg: SystemConfig, wl: &str) -> Simulation {
    let w = Workload::by_name(wl).expect("workload exists");
    Simulation::new(cfg, w).instructions_per_core(INSTR).warmup(WARMUP)
}

/// Field-by-field bit equality of two reports (f64s compared via to_bits).
fn assert_reports_identical(a: &RunReport, b: &RunReport, label: &str) {
    assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "{label}: ipc");
    let pa: Vec<u64> = a.per_core_ipc.iter().map(|v| v.to_bits()).collect();
    let pb: Vec<u64> = b.per_core_ipc.iter().map(|v| v.to_bits()).collect();
    assert_eq!(pa, pb, "{label}: per-core ipc");
    assert_eq!(a.mpki.to_bits(), b.mpki.to_bits(), "{label}: mpki");
    assert_eq!(a.breakdown_ns, b.breakdown_ns, "{label}: breakdown");
    assert_eq!(
        a.l2_miss_latency_ns.to_bits(),
        b.l2_miss_latency_ns.to_bits(),
        "{label}: miss latency"
    );
    assert_eq!(a.bandwidth_gbs.to_bits(), b.bandwidth_gbs.to_bits(), "{label}: bandwidth");
    assert_eq!(a.utilization.to_bits(), b.utilization.to_bits(), "{label}: utilization");
    assert_eq!(a.cxl_link_utilization, b.cxl_link_utilization, "{label}: link util");
    assert_eq!(a.cycles, b.cycles, "{label}: cycles");
    assert_eq!(a.hier.l2_misses, b.hier.l2_misses, "{label}: l2 misses");
    assert_eq!(a.hier.llc_misses, b.hier.llc_misses, "{label}: llc misses");
    assert_eq!(a.ddr.reads, b.ddr.reads, "{label}: ddr reads");
    assert_eq!(a.ddr.writes, b.ddr.writes, "{label}: ddr writes");
    assert_eq!(a.ddr.act, b.ddr.act, "{label}: ACTs");
}

#[test]
fn attaching_telemetry_does_not_change_the_report() {
    for (cfg, label) in
        [(SystemConfig::ddr_baseline(), "ddr"), (SystemConfig::coaxial_4x(), "coaxial")]
    {
        let plain = sim(cfg.clone(), "mcf").run();
        let (with_tel, rec, _metrics) =
            sim(cfg, "mcf").run_with_telemetry(TelemetryRecorder::new());
        assert_reports_identical(&plain, &with_tel, label);
        assert!(rec.attribution.requests() > 0, "{label}: recorder saw traffic");
    }
}

#[test]
fn conservation_holds_through_the_full_driver() {
    let (report, rec, _metrics) = sim(SystemConfig::coaxial_4x(), "stream-copy")
        .run_with_telemetry(TelemetryRecorder::new().keep_requests(1 << 20));
    assert!(!rec.requests.is_empty());
    for r in &rec.requests {
        let sum: u64 = r.components().iter().sum();
        assert_eq!(sum, r.total(), "conservation violated for line {:#x}", r.line);
    }
    let total_mean = rec.attribution.total.mean();
    let comp_sum: f64 = COMPONENTS.iter().map(|&c| rec.attribution.mean_cycles(c)).sum();
    assert!((total_mean - comp_sum).abs() < 1e-6, "means: {comp_sum} vs {total_mean}");
    // The attributed mean tracks the driver's own l2-miss latency (small
    // slack: in-flight requests at the warmup boundary land differently).
    let att_ns = total_mean * coaxial_sim::NS_PER_CYCLE;
    assert!(
        (att_ns - report.l2_miss_latency_ns).abs() / report.l2_miss_latency_ns < 0.05,
        "attributed {att_ns:.1} ns vs report {:.1} ns",
        report.l2_miss_latency_ns
    );
}

#[test]
fn harvested_metrics_match_report_and_cover_all_layers() {
    let (report, _rec, metrics) =
        sim(SystemConfig::coaxial_4x(), "stream-copy").run_with_telemetry(TelemetryRecorder::new());
    assert_eq!(metrics.counter("hier.l2_misses"), Some(report.hier.l2_misses));
    assert_eq!(metrics.counter("hier.mem.reads"), Some(report.hier.mem_reads));
    // Backend metrics: per-channel DDR counters behind the CXL links sum
    // to the report's aggregate.
    let ch_reads: u64 =
        (0..4).map(|i| metrics.counter(&format!("mem.ch{i}.ddr.reads")).unwrap()).sum();
    assert_eq!(ch_reads, report.ddr.reads);
    // The prefill store surfaces process-wide counters, and each run
    // reports its prefill wall time and restore outcome.
    assert!(metrics.counter("server.checkpoint.state.mem_hits").is_some());
    assert!(metrics.counter("server.checkpoint.state.misses").is_some());
    assert!(
        metrics.counter("server.checkpoint.state.mem_hits").unwrap()
            + metrics.counter("server.checkpoint.state.disk_hits").unwrap()
            + metrics.counter("server.checkpoint.state.misses").unwrap()
            > 0
    );
    assert!(metrics.counter("server.prefill.wall_ns").is_some());
    assert!(metrics.counter("server.prefill.restored").is_some());
    // And the registry renders without panicking.
    assert!(metrics.render(None).contains("hier.l2_misses"));
}

#[test]
fn breakdown_rows_conserve_latency_and_attribute_cxl() {
    let rows = latency_breakdown(
        &[SystemConfig::ddr_baseline(), SystemConfig::coaxial_4x()],
        "stream-copy",
        Budget { instructions: INSTR, warmup: WARMUP },
    );
    assert_eq!(rows.len(), 2);
    for row in &rows {
        let sum: f64 = row.components_ns.iter().map(|(_, v)| v).sum();
        assert!(
            (sum - row.total_ns).abs() < 1e-6,
            "{}: components {sum} != total {}",
            row.config_name,
            row.total_ns
        );
        assert!(row.requests > 0, "{}: no requests attributed", row.config_name);
    }
    let link = |r: &coaxial_system::experiments::BreakdownRow| {
        r.components_ns.iter().find(|(n, _)| n == "cxl_link").map(|&(_, v)| v).unwrap()
    };
    assert_eq!(link(&rows[0]), 0.0, "DDR baseline has no CXL component");
    assert!(link(&rows[1]) > 30.0, "COAXIAL pays the link premium: {}", link(&rows[1]));
}

const GOLDEN_TRACE: &str = "golden_trace_digest.txt";

/// The Chrome trace JSON of mcf on COAXIAL-4x under the CLI's default
/// trace window (`--trace-cap 65536`, whole run), and its digest.
fn mcf_trace_digest() -> String {
    let rec = TelemetryRecorder::new().with_trace_window(1 << 16, 0, u64::MAX);
    let (_report, rec, _metrics) = sim(SystemConfig::coaxial_4x(), "mcf").run_with_telemetry(rec);
    golden::digest("golden-trace", [rec.tracer.export_chrome_json().as_str()])
}

#[test]
fn chrome_trace_matches_its_golden_digest() {
    let mut pinned = golden::Golden::load(
        GOLDEN_TRACE,
        "telemetry_equivalence",
        "regenerate_golden_trace_digest",
    );
    pinned.check("mcf", "mcf on COAXIAL-4x", &mcf_trace_digest());
    pinned.assert_clean();
}

#[test]
#[ignore = "rewrites tests/golden_trace_digest.txt"]
fn regenerate_golden_trace_digest() {
    golden::write(GOLDEN_TRACE, [("mcf".to_string(), mcf_trace_digest())]);
}
