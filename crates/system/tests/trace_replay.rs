//! Trace replay (`coaxial replay`): a captured `.cxtr` file drives every
//! core through `Simulation::from_trace_file`, which reads the file once.
//! Two replays of one capture must agree bit for bit, and a missing or
//! malformed file is an `Err`, not a panic in the middle of the prefill.

use coaxial_cpu::tracefile;
use coaxial_system::{Simulation, SystemConfig};
use coaxial_workloads::Workload;

#[test]
fn replay_is_deterministic_and_bad_files_are_errors() {
    let dir = std::env::temp_dir().join(format!("coaxial-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mcf.cxtr");
    let mut src = Workload::by_name("mcf").unwrap().trace(0, 0xCAB);
    tracefile::capture(&path, src.as_mut(), 20_000).unwrap();

    let replay = || {
        let sim = Simulation::from_trace_file(SystemConfig::coaxial_4x(), &path).unwrap();
        format!("{:?}", sim.instructions_per_core(3_000).warmup(500).run())
    };
    let first = replay();
    assert!(first.contains("mcf.cxtr"), "the report names the trace: {first}");
    assert_eq!(first, replay(), "two replays of one capture differ");

    let garbage = dir.join("garbage.cxtr");
    std::fs::write(&garbage, b"garbage").unwrap();
    let empty = dir.join("empty.cxtr");
    tracefile::write_trace(&empty, &[]).unwrap();
    for bad in [dir.join("missing.cxtr"), garbage, empty] {
        assert!(Simulation::from_trace_file(SystemConfig::coaxial_4x(), &bad).is_err(), "{bad:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
