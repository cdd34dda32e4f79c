//! Differential test: the event-driven engine against the lockstep oracle.
//!
//! The event engine (`coaxial_system::engine::run_event`) claims *bit
//! identity* with the lockstep loop it replaced — not statistical
//! closeness. This harness holds that claim over the entire workload
//! registry: every workload runs twice, once per engine, under a
//! deterministically-seeded choice of system config and budget, and the
//! runs must agree on
//!
//! 1. the full serialized [`RunReport`] (every f64 bit, every counter),
//! 2. the harvested metrics registry — including the `engine.skipped_cycles`
//!    / `engine.blocked_iters` counters, which are engine-*independent* by
//!    the visited-cycle equivalence argument (engine.rs module docs) — and
//! 3. the raw per-request telemetry ledgers ([`MissRecord`]s), which pin
//!    the cycle-exact path of every L2 miss through the hierarchy.
//!
//! `server.prefill.*` and `server.checkpoint.*` metrics are excluded: the checkpoint stores are
//! process-wide and cumulative, so their hit counts depend on how many
//! runs this *process* has already done, not on the engine under test.
//!
//! Budgets are deliberately small (the registry is 36 workloads × 2
//! engines); the per-workload seed still varies config, active-core
//! count, and budget so the sweep covers DDR and CXL backends, partial
//! core occupancy, and warmup-boundary placement.
//!
//! A second sweep covers the back-pressure shapes the registry draw never
//! reaches — NextLine prefetch, two or four L2 MSHRs, and one captured
//! trace replayed on several cores — where the event engine parks cores
//! whose accesses the hierarchy refuses.
//!
//! Both engines share the backends, so a change that moves both the same
//! way passes the comparison. The event run of each workload is therefore
//! also pinned across commits: its FNV-1a-128 digest must equal the line
//! committed in `tests/golden_digests.txt`. An intended model change
//! regenerates that file and says why.

mod golden;

use coaxial_cache::PrefetchPolicy;
use coaxial_sim::SplitMix64;
use coaxial_system::{ConfigError, EngineKind, Simulation, SystemConfig};
use coaxial_telemetry::TelemetryRecorder;
use coaxial_workloads::Workload;

/// One engine's complete observable output, serialized for comparison.
/// `Debug`-formatted: Rust renders `f64` as the shortest string that parses
/// back to the same bits, so equality of the strings is equality of the bits.
struct Observed {
    report: String,
    metrics: Vec<String>,
    requests: String,
}

fn observe(kind: EngineKind, sim: Simulation, budget: (u64, u64)) -> Observed {
    let (instr, warmup) = budget;
    let (report, rec, metrics) = sim
        .instructions_per_core(instr)
        .warmup(warmup)
        .engine(kind)
        .run_with_telemetry(TelemetryRecorder::new().keep_requests(1 << 16));
    let metrics = metrics
        .iter()
        .filter(|(path, _)| {
            !path.starts_with("server.prefill.") && !path.starts_with("server.checkpoint.")
        })
        .map(|(path, v)| format!("{path} = {v:?}"))
        .collect();
    Observed { report: format!("{report:?}"), metrics, requests: format!("{:?}", rec.requests) }
}

impl Observed {
    /// FNV-1a-128 over the report, the registry and the ledger. The
    /// registry leaves out `engine.*`: its skip counters rise whenever a
    /// backend horizon tightens, with every simulated output unchanged.
    fn digest(&self) -> String {
        let metrics = self.metrics.iter().filter(|m| !m.starts_with("engine."));
        golden::digest(
            "golden-run",
            std::iter::once(&self.report)
                .chain(metrics)
                .chain([&self.requests])
                .map(String::as_str),
        )
    }
}

/// One `<workload> <digest>` line per registry workload.
const GOLDEN: &str = "golden_digests.txt";

/// Deterministic per-workload run parameters: the config/budget draw is
/// seeded by the workload's registry index, so failures reproduce exactly.
fn draw(rng: &mut SplitMix64) -> (SystemConfig, (u64, u64)) {
    let cfg = match rng.next_below(5) {
        0 => SystemConfig::ddr_baseline(),
        1 => SystemConfig::coaxial_2x(),
        2 => SystemConfig::coaxial_4x(),
        3 => SystemConfig::coaxial_5x(),
        _ => SystemConfig::coaxial_asym(),
    };
    // Occasionally leave cores idle: parked-core bookkeeping must stay
    // exact when some slots never block (or never run).
    let cfg = if rng.chance(0.25) {
        let cores = u64::try_from(cfg.functional.cores).unwrap();
        let active = 1 + coaxial_sim::idx(rng.next_below(cores - 1));
        cfg.with_active_cores(active)
    } else {
        cfg
    };
    let instr = 800 + rng.next_below(800);
    let warmup = rng.next_below(400);
    (cfg, (instr, warmup))
}

/// Every differential run: each registry workload with its seeded draw.
fn runs() -> impl Iterator<Item = (&'static Workload, SystemConfig, (u64, u64))> {
    Workload::all().iter().enumerate().map(|(i, w)| {
        let mut rng = SplitMix64::new(0xD1FF ^ (u64::try_from(i).unwrap() << 8));
        let (cfg, budget) = draw(&mut rng);
        (w, cfg, budget)
    })
}

#[test]
fn event_engine_matches_lockstep_oracle_on_every_workload() {
    let mut pinned =
        golden::Golden::load(GOLDEN, "engine_differential", "regenerate_golden_digests");
    for (w, cfg, budget) in runs() {
        let label = format!("{} on {} (instr={}, warmup={})", w.name, cfg.name, budget.0, budget.1);
        let oracle = observe(EngineKind::Lockstep, Simulation::new(cfg.clone(), w), budget);
        let event = observe(EngineKind::Event, Simulation::new(cfg, w), budget);
        assert_eq!(event.report, oracle.report, "{label}: RunReport diverged");
        assert_eq!(event.metrics, oracle.metrics, "{label}: metrics registry diverged");
        assert_eq!(event.requests, oracle.requests, "{label}: telemetry ledgers diverged");
        pinned.check(w.name, &label, &event.digest());
    }
    pinned.assert_clean();
}

/// Event against lockstep where cores back up behind the hierarchy: on
/// the DDR baseline and COAXIAL-4x, lbm under NextLine prefetch (a refused
/// access must not touch `prefetched_lines`), stream-copy with two L2
/// MSHRs, and one captured lbm trace replayed on six cores with two MSHRs
/// and with prefetch. The six cores miss on the same lines, so one core's
/// fill of a line can end another's refusal of it. The trace outruns the
/// prefill (about 524k ops per core on the DDR baseline at six cores), so
/// its first lines have left the LLC when the timed run replays them.
#[test]
fn event_engine_matches_lockstep_under_back_pressure() {
    let dir = std::env::temp_dir().join(format!("coaxial-backpressure-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the trace directory");
    let trace = dir.join("lbm.cxtr");
    let mut source = Workload::by_name("lbm").expect("workload exists").trace(0, 0xB4C);
    coaxial_cpu::tracefile::capture(&trace, &mut source, 540_000).expect("capture the trace");
    let next_line = PrefetchPolicy::NextLine { degree: 2 };
    for base in [SystemConfig::ddr_baseline(), SystemConfig::coaxial_4x()] {
        let six = base.clone().with_active_cores(6);
        // A registry workload, or the trace (`None`) on every active core.
        let cases = [
            ("lbm + NextLine 2", base.clone().with_prefetch(next_line), Some("lbm")),
            ("stream-copy + 2 MSHRs", base.clone().with_l2_mshrs(2), Some("stream-copy")),
            ("lbm trace on 6 cores + 2 MSHRs", six.clone().with_l2_mshrs(2), None),
            ("lbm trace on 6 cores + NextLine 2", six.with_prefetch(next_line), None),
        ];
        for (shape, cfg, workload) in cases {
            let label = format!("{shape} on {}", base.name);
            let sim = || match workload {
                Some(name) => {
                    Simulation::new(cfg.clone(), Workload::by_name(name).expect("workload exists"))
                }
                None => Simulation::from_trace_file(cfg.clone(), &trace).expect("read the trace"),
            };
            let oracle = observe(EngineKind::Lockstep, sim(), (1500, 300));
            let event = observe(EngineKind::Event, sim(), (1500, 300));
            assert_eq!(event.report, oracle.report, "{label}: RunReport diverged");
            assert_eq!(event.metrics, oracle.metrics, "{label}: metrics registry diverged");
            assert_eq!(event.requests, oracle.requests, "{label}: telemetry ledgers diverged");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[ignore = "rewrites tests/golden_digests.txt"]
fn regenerate_golden_digests() {
    golden::write(
        GOLDEN,
        runs().map(|(w, cfg, budget)| {
            (
                w.name.to_string(),
                observe(EngineKind::Event, Simulation::new(cfg, w), budget).digest(),
            )
        }),
    );
}

#[test]
fn engine_env_override_is_honoured_and_validated() {
    // from_env maps unset → Event, "lockstep"/"event" (any case) → the
    // engine, and anything else must refuse to run rather than silently
    // fall back. Exercised via the parse layer only: tests share one
    // process environment, so we never set the variable here.
    assert_eq!(EngineKind::from_env().name(), "event");
    assert_eq!(EngineKind::parse(Some("lockstep")), Ok(EngineKind::Lockstep));
    assert_eq!(EngineKind::parse(Some("EVENT")), Ok(EngineKind::Event));
    assert_eq!(EngineKind::parse(None), Ok(EngineKind::Event));
    assert_eq!(
        EngineKind::parse(Some("typo")),
        Err(ConfigError::UnknownEngine("typo".to_string()))
    );
}
