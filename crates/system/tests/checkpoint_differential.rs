//! Differential test for the prefill checkpoint store: a run that restores
//! warmed state from a checkpoint must be observably indistinguishable from
//! the run that simulated its prefill cold.
//!
//! The store is keyed by the functional config slice alone (see
//! `config::FunctionalConfig` and lint E03), so this is the load-bearing
//! correctness claim behind the ≥3× sweep speedup: if restore changed *any*
//! bit of the report, metrics, or telemetry ledgers, checkpointing would be
//! an approximation, not an optimization. Every workload in the registry
//! runs three times — cold (populating the store), restored on the event
//! engine, and restored on the lockstep oracle — and all three must agree
//! byte-for-byte. `server.prefill.restored` pins down that the second and
//! third runs really did take the restore path rather than silently
//! re-simulating.
//!
//! The disk tier round-trips the same `PrefillState` payload through an
//! explicit `CheckpointStore` directory (no env coupling, so the test
//! cannot race other tests over process-wide state).

use coaxial_cache::{Hierarchy, HierarchyConfig, PrefillState};
use coaxial_sim::{CheckpointStore, Snapshot};
use coaxial_system::{EngineKind, Simulation, SystemConfig};
use coaxial_telemetry::TelemetryRecorder;
use coaxial_workloads::Workload;
use std::sync::Arc;

/// One run's complete observable output plus its restore flag.
struct Observed {
    report: String,
    metrics: Vec<String>,
    requests: String,
    restored: u64,
}

fn observe(kind: EngineKind, cfg: SystemConfig, w: &'static Workload) -> Observed {
    let (report, rec, metrics) = Simulation::new(cfg, w)
        .instructions_per_core(1_500)
        .warmup(300)
        .engine(kind)
        .run_with_telemetry(TelemetryRecorder::new().keep_requests(1 << 14));
    let restored = metrics.counter("server.prefill.restored").expect("restore flag exported");
    let metrics = metrics
        .iter()
        // Wall times and process-cumulative store counters legitimately
        // differ between cold and restored runs; everything else must not.
        .filter(|(path, _)| {
            !path.starts_with("server.prefill.") && !path.starts_with("server.checkpoint.")
        })
        .map(|(path, v)| format!("{path} = {v:?}"))
        .collect();
    Observed {
        report: format!("{report:?}"),
        metrics,
        requests: format!("{:?}", rec.requests),
        restored,
    }
}

#[test]
fn restored_runs_are_byte_identical_to_cold_runs_on_every_workload() {
    for (i, w) in Workload::all().iter().enumerate() {
        // A per-workload seed unique to this test keeps the first run a
        // guaranteed store miss even though the store is process-wide.
        let seed = 0xC4EC_0000 ^ (u64::try_from(i).unwrap() << 4);
        let cfg = || SystemConfig::coaxial_4x().with_seed(seed);
        let cold = observe(EngineKind::Event, cfg(), w);
        let warm = observe(EngineKind::Event, cfg(), w);
        let oracle = observe(EngineKind::Lockstep, cfg(), w);
        assert_eq!(cold.restored, 0, "{}: first run must simulate prefill cold", w.name);
        assert_eq!(warm.restored, 1, "{}: second run must restore the checkpoint", w.name);
        assert_eq!(oracle.restored, 1, "{}: oracle run must restore the checkpoint", w.name);
        for (other, label) in [(&warm, "restored"), (&oracle, "lockstep-restored")] {
            assert_eq!(cold.report, other.report, "{} ({label}): RunReport diverged", w.name);
            assert_eq!(cold.metrics, other.metrics, "{} ({label}): metrics diverged", w.name);
            assert_eq!(cold.requests, other.requests, "{} ({label}): ledgers diverged", w.name);
        }
    }
}

/// Geometry changes the functional slice, so a warmed snapshot must never
/// leak across LLC sizes or core counts — distinct keys, distinct state.
#[test]
fn different_functional_slices_do_not_share_checkpoints() {
    let w = Workload::by_name("mcf").expect("workload exists");
    let seed = 0xC4EC_BEEF;
    let four = observe(EngineKind::Event, SystemConfig::coaxial_4x().with_seed(seed), w);
    // Same workload + seed, different LLC geometry: must be a fresh miss.
    let two = observe(EngineKind::Event, SystemConfig::coaxial_2x().with_seed(seed), w);
    assert_eq!(four.restored, 0);
    assert_eq!(two.restored, 0, "different llc_mb_per_core must key a different checkpoint");
    let fewer = observe(
        EngineKind::Event,
        SystemConfig::coaxial_4x().with_seed(seed).with_active_cores(6),
        w,
    );
    assert_eq!(fewer.restored, 0, "different active_cores must key a different checkpoint");
}

/// The warmed `PrefillState` payload survives the disk tier byte-for-byte:
/// export from a prefilled hierarchy, round-trip through a store directory
/// with a fresh store instance (cold memory tier), import into a second
/// hierarchy, and compare the re-exported encodings.
#[test]
fn prefill_state_disk_round_trip_is_exact() {
    let w = Workload::by_name("bfs").expect("workload exists");
    let hcfg = || HierarchyConfig::table_iii(4, 2, 1.0, 76.8, coaxial_cache::CalmPolicy::Serial);
    let mut warm = Hierarchy::new(
        hcfg(),
        coaxial_dram::MultiChannel::new(&coaxial_dram::DramConfig::ddr5_4800(), 2),
    );
    for core in 0..4u32 {
        let mut t = w.trace(core, 0xD15C);
        for _ in 0..20_000 {
            let (line, is_store) = t.next_access();
            warm.prefill_access(core, line, is_store);
        }
    }
    let state = Arc::new(warm.export_prefill_state());
    let mut encoded = Vec::new();
    state.encode(&mut encoded);

    let dir = std::env::temp_dir().join(format!("coaxial-ckpt-sys-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut store: CheckpointStore<PrefillState> =
            CheckpointStore::new(1 << 24, Some(dir.clone()), "t");
        store.insert(7, Arc::clone(&state), state.approx_bytes());
        assert_eq!(store.counters().disk_errors, 0, "disk write must succeed");
    }
    let mut fresh: CheckpointStore<PrefillState> =
        CheckpointStore::new(1 << 24, Some(dir.clone()), "t");
    let decoded = fresh.get(7).expect("disk tier serves the snapshot");
    assert_eq!(fresh.counters().disk_hits, 1);
    let mut re_encoded = Vec::new();
    decoded.encode(&mut re_encoded);
    assert_eq!(encoded, re_encoded, "disk round trip must be byte-exact");

    // And importing the decoded state reproduces the warmed hierarchy.
    let mut cold = Hierarchy::new(
        hcfg(),
        coaxial_dram::MultiChannel::new(&coaxial_dram::DramConfig::ddr5_4800(), 2),
    );
    assert!(cold.import_prefill_state(&decoded), "a same-geometry state imports");
    let mut after_import = Vec::new();
    cold.export_prefill_state().encode(&mut after_import);
    assert_eq!(encoded, after_import, "import/export must be lossless");
    let _ = std::fs::remove_dir_all(&dir);
}
