//! Conservation and equivalence properties of the latency-attribution
//! telemetry.
//!
//! * **Conservation**: for every recorded request, the per-component cycles
//!   sum *exactly* to the end-to-end L2-miss latency, and the explicit
//!   stamps never exceed the total (the `Overlap` residual is a true
//!   subtraction, not a saturating rescue).
//! * **Equivalence**: running the identical access stream with telemetry on
//!   and off produces identical hierarchy statistics — the recorder only
//!   observes, never perturbs.

use coaxial_cache::{CalmPolicy, Hierarchy, HierarchyConfig, PrefillState};
use coaxial_cxl::{CxlLinkConfig, CxlMemory};
use coaxial_dram::{DramConfig, MemoryBackend, MultiChannel};
use coaxial_sim::Cycle;
use coaxial_telemetry::{Component, TelemetryRecorder, TelemetrySink, COMPONENTS};

fn cfg(calm: CalmPolicy) -> HierarchyConfig {
    HierarchyConfig::table_iii(4, 2, 1.0, 76.8, calm)
}

/// A hierarchy with empty arrays over `backend`, recording into `rec`.
fn recorded<B: MemoryBackend>(
    cfg: HierarchyConfig,
    backend: B,
    rec: TelemetryRecorder,
) -> Hierarchy<B, TelemetryRecorder> {
    let arrays = PrefillState::new(&cfg.geometry);
    Hierarchy::with_telemetry(cfg, backend, rec, arrays)
}

/// Drive `n` pseudo-random accesses through the hierarchy and settle.
fn drive<B: MemoryBackend, T: TelemetrySink>(h: &mut Hierarchy<B, T>, n: u64, seed: u64) {
    use coaxial_cache::hierarchy::AccessResult;
    let mut rng = coaxial_sim::SplitMix64::new(seed);
    let mut now: Cycle = 0;
    let mut outstanding = 0u64;
    let mut issued = 0u64;
    while issued < n || outstanding > 0 {
        now += 1;
        h.tick(now);
        while h.pop_completion().is_some() {
            outstanding -= 1;
        }
        if issued < n && now.is_multiple_of(3) {
            let core = coaxial_sim::small_u32_u64(rng.next_below(4));
            // Mix of hot lines (LLC hits) and a large cold region.
            let line =
                if rng.next_below(4) == 0 { rng.next_below(512) } else { rng.next_below(1 << 22) };
            let is_write = rng.next_below(4) == 0;
            match h.access(core, line, is_write, (line % 97) as u32, now, issued) {
                AccessResult::Pending => {
                    outstanding += 1;
                    issued += 1;
                }
                AccessResult::Done(_) => issued += 1,
                AccessResult::Retry => {}
            }
        }
        assert!(now < 80_000_000, "run did not settle");
    }
}

fn check_conservation<B: MemoryBackend>(h: Hierarchy<B, TelemetryRecorder>, label: &str) {
    let stats = h.stats();
    let rec = h.into_telemetry();
    assert!(rec.attribution.requests() > 100, "{label}: too few misses recorded");
    assert_eq!(
        rec.attribution.requests(),
        stats.l2_misses,
        "{label}: every primary L2 miss must be attributed"
    );
    assert!(!rec.requests.is_empty(), "{label}: raw records kept");
    for r in &rec.requests {
        let stamped: Cycle =
            r.noc + r.llc + r.issue_wait + r.dram_queue + r.dram_service + r.cxl_link;
        assert!(
            stamped <= r.total(),
            "{label}: stamps exceed total for line {:#x}: {stamped} > {}",
            r.line,
            r.total()
        );
        let sum: Cycle = r.components().iter().sum();
        assert_eq!(sum, r.total(), "{label}: conservation violated for line {:#x}", r.line);
        if !r.calm {
            assert_eq!(r.overlap(), 0, "{label}: serial path must have zero overlap");
        }
        if r.llc_hit {
            assert_eq!(
                r.dram_queue + r.dram_service + r.cxl_link,
                0,
                "{label}: LLC hit carries no memory-path cycles"
            );
        } else {
            assert!(r.dram_service > 0, "{label}: memory fetch must pay DRAM service");
            assert!(r.noc > 0, "{label}: memory fetch must cross the NoC");
        }
    }
    // Aggregate view: component means sum to the total mean.
    let total_mean = rec.attribution.total.mean();
    let comp_sum: f64 = COMPONENTS.iter().map(|&c| rec.attribution.mean_cycles(c)).sum();
    assert!(
        (total_mean - comp_sum).abs() < 1e-6,
        "{label}: component means {comp_sum} != total mean {total_mean}"
    );
}

#[test]
fn conservation_holds_on_ddr_for_all_calm_policies() {
    for calm in [CalmPolicy::Serial, CalmPolicy::Ideal, CalmPolicy::CalmR { r: 0.7 }] {
        let backend = MultiChannel::new(&DramConfig::ddr5_4800(), 2);
        let mut h = recorded(cfg(calm), backend, TelemetryRecorder::new().keep_requests(1 << 16));
        drive(&mut h, 3_000, 0xA11CE);
        check_conservation(h, &format!("ddr/{calm:?}"));
    }
}

#[test]
fn conservation_holds_on_cxl_and_attributes_link_cycles() {
    let backend = CxlMemory::new(&CxlLinkConfig::x8_symmetric(), &DramConfig::ddr5_4800(), 2);
    let mut h = recorded(
        HierarchyConfig::table_iii(4, 2, 1.0, 76.8, CalmPolicy::CalmR { r: 0.7 }),
        backend,
        TelemetryRecorder::new().keep_requests(1 << 16),
    );
    drive(&mut h, 3_000, 0xBEEF);
    let cxl_cycles = h.telemetry().attribution.mean_cycles(Component::CxlLink);
    assert!(cxl_cycles > 0.0, "CXL backend must attribute link cycles");
    check_conservation(h, "cxl/calm_r");
}

#[test]
fn telemetry_on_and_off_produce_identical_statistics() {
    let run_stats = |record: bool| {
        let calm = CalmPolicy::CalmR { r: 0.7 };
        let backend = MultiChannel::new(&DramConfig::ddr5_4800(), 2);
        if record {
            let mut h = recorded(cfg(calm), backend, TelemetryRecorder::new());
            drive(&mut h, 2_000, 7);
            h.stats()
        } else {
            let mut h = Hierarchy::new(cfg(calm), backend);
            drive(&mut h, 2_000, 7);
            h.stats()
        }
    };
    let off = run_stats(false);
    let on = run_stats(true);
    assert_eq!(off.l2_misses, on.l2_misses);
    assert_eq!(off.llc_hits, on.llc_hits);
    assert_eq!(off.llc_misses, on.llc_misses);
    assert_eq!(off.mem_reads, on.mem_reads);
    assert_eq!(off.mem_writes, on.mem_writes);
    assert_eq!(off.onchip_cycles, on.onchip_cycles);
    assert_eq!(off.queue_cycles, on.queue_cycles);
    assert_eq!(off.service_cycles, on.service_cycles);
    assert_eq!(off.cxl_cycles, on.cxl_cycles);
    assert_eq!(off.l2_miss_latency.count(), on.l2_miss_latency.count());
    assert_eq!(off.l2_miss_latency.max(), on.l2_miss_latency.max());
}
