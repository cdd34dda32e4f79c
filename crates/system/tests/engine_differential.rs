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
//! Both engines share the backends, so a change that moves both the same
//! way passes the comparison. The event run of each workload is therefore
//! also pinned across commits: its FNV-1a-128 digest must equal the line
//! committed in `tests/golden_digests.txt`. An intended model change
//! regenerates that file and says why.

use std::collections::BTreeMap;

use coaxial_sim::{KeyHasher, SplitMix64};
use coaxial_system::{EngineKind, Simulation, SystemConfig};
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

fn observe(
    kind: EngineKind,
    cfg: SystemConfig,
    w: &'static Workload,
    budget: (u64, u64),
) -> Observed {
    let (instr, warmup) = budget;
    let (report, rec, metrics) = Simulation::new(cfg, w)
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
    fn digest(&self) -> u128 {
        let mut h = KeyHasher::new("golden-run");
        h.write_str(&self.report);
        for m in self.metrics.iter().filter(|m| !m.starts_with("engine.")) {
            h.write_str(m);
        }
        h.write_str(&self.requests);
        h.finish()
    }
}

/// One `<workload> <digest>` line per registry workload.
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_digests.txt");
const REGENERATE: &str =
    "cargo test -p coaxial-system --test engine_differential -- --ignored regenerate_golden_digests";

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
    let golden: BTreeMap<String, String> = std::fs::read_to_string(GOLDEN)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.rsplit_once(' '))
        .map(|(w, d)| (w.to_string(), d.to_string()))
        .collect();
    let mut mismatches = Vec::new();
    for (w, cfg, budget) in runs() {
        let label = format!("{} on {} (instr={}, warmup={})", w.name, cfg.name, budget.0, budget.1);
        let oracle = observe(EngineKind::Lockstep, cfg.clone(), w, budget);
        let event = observe(EngineKind::Event, cfg, w, budget);
        assert_eq!(event.report, oracle.report, "{label}: RunReport diverged");
        assert_eq!(event.metrics, oracle.metrics, "{label}: metrics registry diverged");
        assert_eq!(event.requests, oracle.requests, "{label}: telemetry ledgers diverged");
        let digest = format!("{:032x}", event.digest());
        let want = golden.get(w.name).map_or("(none)", String::as_str);
        if want != digest {
            mismatches.push(format!("{label}: golden {want}, this run {digest}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "outputs moved against {GOLDEN}:\n{}\nif intended, regenerate it with\n  {REGENERATE}",
        mismatches.join("\n")
    );
}

#[test]
#[ignore = "rewrites tests/golden_digests.txt"]
fn regenerate_golden_digests() {
    let lines: String = runs()
        .map(|(w, cfg, budget)| {
            format!("{} {:032x}\n", w.name, observe(EngineKind::Event, cfg, w, budget).digest())
        })
        .collect();
    std::fs::write(GOLDEN, lines).expect("write the golden digests");
}

#[test]
fn engine_env_override_is_honoured_and_validated() {
    // from_env maps unset → Event, "lockstep"/"event" (any case) → the
    // engine, and anything else must refuse to run rather than silently
    // fall back. Exercised via the parse layer only: tests share one
    // process environment, so we never set the variable here.
    assert_eq!(EngineKind::from_env().name(), "event");
    assert_eq!(EngineKind::parse(Some("lockstep")).name(), "lockstep");
    assert_eq!(EngineKind::parse(Some("EVENT")).name(), "event");
    assert_eq!(EngineKind::parse(None).name(), "event");
    assert!(std::panic::catch_unwind(|| EngineKind::parse(Some("typo"))).is_err());
}
