//! Differential test: SMARTS interval sampling against full-detail runs.
//!
//! Sampling is an *estimator*, not a bit-identical transform, so unlike
//! `engine_differential` this harness holds statistical and structural
//! claims instead of equality of every bit:
//!
//! 1. **Accuracy** — over the entire workload registry, on both engines
//!    and across the config zoo, the sampled IPC lands within the
//!    reported 95 % confidence interval of the full-detail IPC at the
//!    same per-core horizon, plus a small tolerance floor. The floor
//!    exists because the synthetic workloads are stationary enough that
//!    the between-interval variance (what the t-interval measures) can
//!    collapse below the residual warm-up bias of truncated intervals;
//!    on real traces the variance term dominates and the floor is slack.
//! 2. **Determinism** — the complete `SampledReport` (report + summary,
//!    every f64 bit) is byte-stable across repeat runs and across
//!    engines: the engines are bit-identical, so an estimator built on
//!    them must be too.
//! 3. **Early stopping** — a loose relative-CI target ends the run
//!    before the planned interval count, a zero target never does, and
//!    the instruction accounting (detail + fast-forward vs horizon)
//!    stays consistent either way.
//!
//! Two of the accuracy sweep's sampled reports, one on the DDR baseline
//! and one on COAXIAL-4x, are also pinned across commits: their FNV-1a-128
//! digests must equal the lines in `tests/golden_sampled_digests.txt`, the
//! way `engine_differential` pins the full-detail runs.

mod golden;

use coaxial_system::{EngineKind, SampledReport, SamplingConfig, Simulation, SystemConfig};
use coaxial_workloads::Workload;

/// Per-core horizon shared by the full-detail run and the sampled run.
const HORIZON: u64 = 100_000;

/// Interval shape: 5 × (5000 warm + 5000 measure) = 50 000 detailed
/// instructions per core — half the horizon, so the fast-forward path is
/// genuinely exercised on every workload. The warm span matches the
/// measured one deliberately: each interval restarts timing state
/// (queues, MSHRs, predictors) from scratch, and on bandwidth-saturated
/// geometries the queue backlog converges slowly, so short detail
/// warm-ups leave a measurable optimistic bias. Empirically on this
/// registry: ~+17 % mean bias at 500+1000 per interval, ~+3 % at
/// 4000+4000, ~+0.1 % at this shape (see DESIGN.md §5i).
fn scfg() -> SamplingConfig {
    SamplingConfig { intervals: 5, measure: 5_000, warm: 5_000, ci_target: 0.0 }
}

/// The config zoo, cycled by registry index so the sweep covers the DDR
/// baseline and every CXL geometry without 5× the runtime.
fn config_for(i: usize) -> SystemConfig {
    match i % 5 {
        0 => SystemConfig::ddr_baseline(),
        1 => SystemConfig::coaxial_2x(),
        2 => SystemConfig::coaxial_4x(),
        3 => SystemConfig::coaxial_5x(),
        _ => SystemConfig::coaxial_asym(),
    }
}

fn engine_for(i: usize) -> EngineKind {
    if i.is_multiple_of(2) {
        EngineKind::Event
    } else {
        EngineKind::Lockstep
    }
}

fn run_sampled(cfg: SystemConfig, w: &'static Workload, kind: EngineKind) -> SampledReport {
    Simulation::new(cfg, w).instructions_per_core(HORIZON).engine(kind).run_sampled(&scfg())
}

/// Registry indices whose sampled report is pinned: `config_for` puts
/// index 0 on the DDR baseline and index 2 on COAXIAL-4x.
const PINNED: [usize; 2] = [0, 2];
/// One `<workload> <digest>` line per pinned run.
const GOLDEN: &str = "golden_sampled_digests.txt";

/// FNV-1a-128 of the whole `SampledReport`'s `Debug` text (every f64 bit).
fn digest(r: &SampledReport) -> String {
    golden::digest("golden-sampled", [format!("{r:?}").as_str()])
}

#[test]
fn sampled_ipc_lands_within_ci_of_full_detail_on_every_workload() {
    let mut pinned =
        golden::Golden::load(GOLDEN, "sampling_differential", "regenerate_golden_sampled_digests");
    for (i, w) in Workload::all().iter().enumerate() {
        let cfg = config_for(i);
        let kind = engine_for(i);
        let label = format!("{} on {} ({})", w.name, cfg.name, kind.name());

        let full = Simulation::new(cfg.clone(), w)
            .instructions_per_core(HORIZON)
            .warmup(2_000)
            .engine(kind)
            .run();
        let sampled = run_sampled(cfg, w, kind);
        let s = &sampled.sampling;

        assert_eq!(s.intervals_run, 5, "{label}: no early stop at ci_target 0");
        assert!(s.fast_forward_instructions > 0, "{label}: fast-forward must engage");
        // The sampled estimate must land inside its own stated CI around
        // the full-detail IPC, up to the stationarity floor (6 % of the
        // full-detail IPC; worst observed excess at this shape is ~4 %).
        let err = (s.ipc_mean - full.ipc).abs();
        let tol = s.ipc_ci_half + 0.06 * full.ipc;
        assert!(
            err <= tol,
            "{label}: sampled {:.4} vs full {:.4}: |err| {err:.4} > ci {:.4} + floor {:.4}",
            s.ipc_mean,
            full.ipc,
            s.ipc_ci_half,
            0.06 * full.ipc
        );
        if PINNED.contains(&i) {
            pinned.check(w.name, &label, &digest(&sampled));
        }
    }
    pinned.assert_clean();
}

#[test]
#[ignore = "rewrites tests/golden_sampled_digests.txt"]
fn regenerate_golden_sampled_digests() {
    golden::write(
        GOLDEN,
        PINNED.iter().map(|&i| {
            let w = &Workload::all()[i];
            (w.name.to_string(), digest(&run_sampled(config_for(i), w, engine_for(i))))
        }),
    );
}

#[test]
fn ci_coverage_holds_across_seeds_on_both_engines() {
    // Same claim as above, but varying the one remaining input the
    // registry sweep holds fixed: the workload-generation/CALM seed.
    let w = Workload::by_name("mcf").expect("mcf exists");
    for (i, base_seed) in [1u64, 0xD1FF, 0xC0A51A1].into_iter().enumerate() {
        for kind in [EngineKind::Event, EngineKind::Lockstep] {
            let cfg = SystemConfig::coaxial_4x().with_seed(base_seed ^ ((i as u64) << 8));
            let label = format!("mcf seed {base_seed:#x} ({})", kind.name());
            let full = Simulation::new(cfg.clone(), w)
                .instructions_per_core(HORIZON)
                .warmup(2_000)
                .engine(kind)
                .run();
            let s = run_sampled(cfg, w, kind).sampling;
            let err = (s.ipc_mean - full.ipc).abs();
            let tol = s.ipc_ci_half + 0.06 * full.ipc;
            assert!(err <= tol, "{label}: |err| {err:.4} > {tol:.4}");
        }
    }
}

#[test]
fn sampled_reports_are_deterministic_and_engine_invariant() {
    let w = Workload::by_name("omnetpp").expect("omnetpp exists");
    // `Debug` renders every f64 as the shortest string that round-trips,
    // so string equality is bit equality of the whole report.
    let a = format!("{:?}", run_sampled(SystemConfig::coaxial_4x(), w, EngineKind::Event));
    let b = format!("{:?}", run_sampled(SystemConfig::coaxial_4x(), w, EngineKind::Event));
    assert_eq!(a, b, "same seed must reproduce the sampled report bit-for-bit");
    let c = format!("{:?}", run_sampled(SystemConfig::coaxial_4x(), w, EngineKind::Lockstep));
    assert_eq!(a, c, "the engines are bit-identical, so sampling on them must be too");
}

#[test]
fn early_stopping_respects_the_ci_target_and_keeps_accounting_consistent() {
    let w = Workload::by_name("stream-add").expect("stream-add exists");
    let sim = || Simulation::new(SystemConfig::coaxial_4x(), w).instructions_per_core(HORIZON);

    // A very loose relative target (90 %) is met at the 3-interval
    // minimum on any workload with finite variance.
    let loose = SamplingConfig { ci_target: 0.9, ..scfg() };
    let s = sim().run_sampled(&loose).sampling;
    assert!(s.early_stopped, "90 % relative CI must stop early");
    assert_eq!(s.intervals_run, 3, "stops at the 3-sample minimum");
    assert!(s.intervals_run < s.intervals_planned);
    assert_eq!(s.ipc_samples.len(), 3);

    // Target 0 disables early stopping outright.
    let s = sim().run_sampled(&scfg()).sampling;
    assert!(!s.early_stopped);
    assert_eq!(s.intervals_run, s.intervals_planned);

    // Accounting: per-core detail is warm+measure per interval, and the
    // per-core covered span (detail + fast-forward) tracks the horizon.
    let cores = 12u64;
    assert_eq!(s.detail_instructions, (5_000 + 5_000) * s.intervals_run * cores);
    let per_core_covered = (s.detail_instructions + s.fast_forward_instructions) / cores;
    assert!(
        per_core_covered >= HORIZON.saturating_sub(s.intervals_run * 64),
        "covered {per_core_covered} must track the {HORIZON} horizon"
    );
}
