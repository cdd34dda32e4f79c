//! Environment-variable knobs shared across the workspace.
//!
//! The workspace's `COAXIAL_*` variables; this module is the single place
//! that parses them so the semantics (and the defaults) cannot drift
//! between crates. `COAXIAL_INSTR`/`COAXIAL_WARMUP` are the default budget
//! of the bench targets and of any `Simulation` built without one; the
//! `coaxial` CLI ignores them and takes `--instr`/`--warmup`.
//!
//! | Variable          | Meaning                                            |
//! |-------------------|----------------------------------------------------|
//! | `COAXIAL_INSTR`   | instructions per core in the measured region       |
//! | `COAXIAL_WARMUP`  | instructions per core of cache/DRAM warmup         |
//! | `COAXIAL_JOBS`    | worker threads for the parallel experiment runner; a cold warm and a sampled fast-forward each add one helper thread, which on Linux runs only on an otherwise idle CPU (`SCHED_IDLE`) |
//! | `COAXIAL_SKIP`    | `off`/`0`/`false` disables hot-loop cycle skipping |
//! | `COAXIAL_ENGINE`  | run-loop engine: `event` (default) or `lockstep`   |
//! | `COAXIAL_DEBUG`   | end-of-run engine diagnostics on stderr            |
//! | `COAXIAL_PREFILL_CACHE_MB` | byte budget (MB) for the cross-run prefill store |
//! | `COAXIAL_CHECKPOINT_DIR` | disk tier for the post-prefill checkpoint store |
//! | `COAXIAL_F2A_CYCLES` | fig2a bench: simulated cycles per load-latency point |
//! | `COAXIAL_F6_WEIGHTED` | fig6 bench: also emit the weighted-speedup column |
//! | `COAXIAL_F7_ALL` | fig7 bench: average over all workloads, not the subset |
//! | `COAXIAL_SAMPLING_INTERVALS` | measurement intervals per sampled run (default 10) |
//! | `COAXIAL_SAMPLING_MEASURE` | measured instructions per core per interval (default 2000) |
//! | `COAXIAL_SAMPLING_WARM` | detailed warm-up instructions per core per interval (default 2000) |
//! | `COAXIAL_SAMPLING_CI` | relative CI half-width target for early stopping (0 = off) |
//!
//! The gateway's `COAXIAL_GATEWAY_*` family is documented in
//! `crates/gateway/src/lib.rs` next to the code that parses it.
//!
//! Every numeric knob is in `NUMERIC_KNOBS`; front ends run
//! [`check_numeric_knobs`] before anything else (through
//! `coaxial_system::engine::check_env`, which also checks
//! `COAXIAL_ENGINE`), so a malformed value stops the command instead of
//! silently falling back to the default.

/// How a numeric knob parses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Numeric {
    /// [`env_u64`]: a non-negative integer.
    U64,
    /// [`env_f64`]: a finite float.
    F64,
}

/// Every numeric `COAXIAL_*` knob, the gateway's included, with its type.
/// Each [`env_u64`]/[`env_f64`] call site in the workspace names one of
/// these (a test holds it).
pub(crate) const NUMERIC_KNOBS: &[(&str, Numeric)] = &[
    ("COAXIAL_INSTR", Numeric::U64),
    ("COAXIAL_WARMUP", Numeric::U64),
    ("COAXIAL_JOBS", Numeric::U64),
    ("COAXIAL_PREFILL_CACHE_MB", Numeric::U64),
    ("COAXIAL_F2A_CYCLES", Numeric::U64),
    ("COAXIAL_SAMPLING_INTERVALS", Numeric::U64),
    ("COAXIAL_SAMPLING_MEASURE", Numeric::U64),
    ("COAXIAL_SAMPLING_WARM", Numeric::U64),
    ("COAXIAL_SAMPLING_CI", Numeric::F64),
    ("COAXIAL_GATEWAY_WORKERS", Numeric::U64),
    ("COAXIAL_GATEWAY_QUEUE", Numeric::U64),
    ("COAXIAL_GATEWAY_CACHE_MB", Numeric::U64),
    ("COAXIAL_GATEWAY_RATE", Numeric::U64),
    ("COAXIAL_GATEWAY_BURST", Numeric::U64),
];

/// Check every set numeric knob. The error names the first that does not
/// parse as its type, in the one line the `coaxial` CLI prints for a
/// malformed option: `COAXIAL_INSTR wants a number, got "12k"`.
pub fn check_numeric_knobs() -> Result<(), String> {
    for &(name, kind) in NUMERIC_KNOBS {
        let Some(raw) = std::env::var_os(name) else { continue };
        let parses = raw.to_str().is_some_and(|v| match kind {
            Numeric::U64 => v.parse::<u64>().is_ok(),
            Numeric::F64 => v.parse::<f64>().is_ok_and(f64::is_finite),
        });
        if !parses {
            return Err(format!("{name} wants a number, got {:?}", raw.to_string_lossy()));
        }
    }
    Ok(())
}

/// Read a `u64` from the environment, falling back to `default` when the
/// variable is unset or unparsable (a front end that ran
/// [`check_numeric_knobs`] has already refused the latter).
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Read a boolean flag from the environment. Unset means `default`;
/// `0`, `off`, `false`, and `no` (case-insensitive) mean `false`; anything
/// else present means `true`.
pub fn env_flag(name: &str, default: bool) -> bool {
    match std::env::var(name) {
        Ok(v) => !matches!(v.to_ascii_lowercase().as_str(), "0" | "off" | "false" | "no"),
        Err(_) => default,
    }
}

/// Read an `f64` from the environment, falling back to `default` when the
/// variable is unset or unparsable. Non-finite values are rejected so a
/// stray `inf`/`nan` cannot poison deterministic arithmetic downstream
/// ([`check_numeric_knobs`] refuses both up front).
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| v.is_finite())
        .unwrap_or(default)
}

/// Number of measurement intervals a sampled run is planned to take
/// (`COAXIAL_SAMPLING_INTERVALS`, default 10, clamped to ≥1). CI-based
/// early stopping may run fewer; see [`sampling_ci_target`].
pub fn sampling_intervals(default: u64) -> u64 {
    env_u64("COAXIAL_SAMPLING_INTERVALS", default).max(1)
}

/// Measured instructions per core inside each detailed interval
/// (`COAXIAL_SAMPLING_MEASURE`, default 2000, clamped to ≥1).
pub fn sampling_measure(default: u64) -> u64 {
    env_u64("COAXIAL_SAMPLING_MEASURE", default).max(1)
}

/// Detailed warm-up instructions per core run before each measurement
/// interval to re-warm timing state (MSHRs, queues, DRAM row state) after a
/// functional fast-forward (`COAXIAL_SAMPLING_WARM`, default 2000; 0 is
/// legal and measures cold).
pub fn sampling_warm(default: u64) -> u64 {
    env_u64("COAXIAL_SAMPLING_WARM", default)
}

/// Relative CI half-width target for early stopping
/// (`COAXIAL_SAMPLING_CI`, default 0.0 = disabled). When positive, a
/// sampled run stops after any interval ≥ 3 whose aggregate IPC
/// half-width / mean falls at or below this value. Negative values are
/// clamped to 0 (disabled).
pub fn sampling_ci_target() -> f64 {
    env_f64("COAXIAL_SAMPLING_CI", 0.0).max(0.0)
}

/// Instructions per core in the measured region (`COAXIAL_INSTR`).
pub fn instructions(default: u64) -> u64 {
    env_u64("COAXIAL_INSTR", default)
}

/// Warmup instructions per core (`COAXIAL_WARMUP`).
pub fn warmup(default: u64) -> u64 {
    env_u64("COAXIAL_WARMUP", default)
}

/// Worker-thread count for the parallel experiment runner (`COAXIAL_JOBS`);
/// defaults to the host's available parallelism. A cold warm and a sampled
/// fast-forward each run one more thread of their own while they last,
/// whatever this says.
pub fn jobs() -> usize {
    let default = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    crate::narrow::idx(env_u64("COAXIAL_JOBS", default as u64).max(1))
}

/// Whether the simulation driver may fast-forward quiescent cycles
/// (`COAXIAL_SKIP`, on by default).
pub fn cycle_skip() -> bool {
    env_flag("COAXIAL_SKIP", true)
}

/// Raw run-loop engine selection (`COAXIAL_ENGINE`), lowercased; `None`
/// when unset. The simulation driver maps `"event"` (the default) and
/// `"lockstep"` (the differential-testing oracle) to engines and rejects
/// anything else, so a typo cannot silently fall back.
pub fn engine_name() -> Option<String> {
    std::env::var("COAXIAL_ENGINE").ok().map(|v| v.to_ascii_lowercase())
}

/// Whether to print end-of-run engine diagnostics — skip percentages,
/// prefill vs. loop wall time — on stderr (`COAXIAL_DEBUG`, off by
/// default). Diagnostics never touch simulated state or reports; the
/// machine-readable equivalents live in the metrics registry under
/// `engine.*`.
pub fn debug() -> bool {
    env_flag("COAXIAL_DEBUG", false)
}

/// Byte budget, in MB, for the memory tier of the simulation driver's one
/// cross-run prefill store, which holds warmed cache states
/// (`COAXIAL_PREFILL_CACHE_MB`, default 64).
///
/// The default is deliberately modest: the prefill loop is host-memory-
/// bound, and retaining hundreds of MB of cold cache entries measurably
/// slows it (the `sim_throughput` sweep regresses ~40 % at a 256 MB
/// budget from heap-locality loss alone). 64 MB holds roughly 8–16
/// warmed states — plenty for interleaved parallel schedules — while
/// keeping the resident set close to the one-entry behaviour.
///
/// Budgets above 128 MB are legal but the simulation driver warns once
/// (stderr + `server.checkpoint.budget_over_cliff` in the registry): the
/// measured sweep showed throughput flat from 32–128 MB and falling past
/// that, with the full ~40 % cliff at 256 MB, so more than 128 MB only
/// buys slowdown. Prefer `COAXIAL_CHECKPOINT_DIR` for large retained sets
/// — the disk tier holds unlimited warmed states without touching the
/// prefill loop's working set.
///
/// The 8–16 states and the 32–128 MB and 256 MB figures were measured when
/// a cache way took 17 B of warmed state (tag, LRU stamp, dirty flag) and
/// a second store of the same budget held generated access streams.
/// A way is now one 8 B word, so a budget holds about twice as many
/// states (a DDR-geometry state is ~4 MB, a COAXIAL-4x one ~2.4 MB).
pub fn prefill_cache_mb() -> u64 {
    env_u64("COAXIAL_PREFILL_CACHE_MB", 64)
}

/// Optional directory for the checkpoint store's disk tier
/// (`COAXIAL_CHECKPOINT_DIR`). When set and non-empty, every freshly
/// warmed post-prefill state is also written there (atomic temp-file +
/// rename, content-addressed by functional-config hash) and later runs —
/// including other processes and future invocations — restore it instead
/// of re-simulating prefill. Unset or empty disables the tier; disk I/O
/// errors are counted (`server.checkpoint.disk_errors`), never fatal.
pub fn checkpoint_dir() -> Option<std::path::PathBuf> {
    match std::env::var("COAXIAL_CHECKPOINT_DIR") {
        Ok(v) if !v.is_empty() => Some(std::path::PathBuf::from(v)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::path::{Path, PathBuf};

    use super::*;

    /// The workspace's `.rs` files under `dir`, build output and vendored
    /// crates aside.
    fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("dir entry").path();
            let name =
                path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
            if path.is_dir() {
                if !name.starts_with('.') && name != "target" && name != "vendor" {
                    rust_sources(&path, out);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }

    /// Every `env_u64`/`env_f64` call in the workspace names a knob of
    /// `NUMERIC_KNOBS` with the matching type, so `check_numeric_knobs`
    /// sees it; and every listed knob is read somewhere.
    #[test]
    fn numeric_knobs_list_every_call_site() {
        let mut files = Vec::new();
        rust_sources(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."), &mut files);
        let mut called = BTreeSet::new();
        for file in &files {
            let text = std::fs::read_to_string(file).expect("utf-8 source");
            for (ty, kind) in [("u64", Numeric::U64), ("f64", Numeric::F64)] {
                let call = format!("env_{ty}(");
                for (at, _) in text.match_indices(&call) {
                    if text[..at].ends_with("fn ") {
                        continue;
                    }
                    let arg = text[at + call.len()..].trim_start();
                    let name = arg.strip_prefix('"').and_then(|a| a.split('"').next());
                    let name = name.unwrap_or_else(|| {
                        panic!("{}: {call} without a literal knob name", file.display())
                    });
                    if name.starts_with("COAXIAL_TEST") {
                        continue;
                    }
                    assert!(
                        NUMERIC_KNOBS.contains(&(name, kind)),
                        "{}: {name} is read with env_{ty} but not listed in NUMERIC_KNOBS as {kind:?}",
                        file.display()
                    );
                    called.insert(name.to_owned());
                }
            }
        }
        let listed: BTreeSet<_> = NUMERIC_KNOBS.iter().map(|&(name, _)| name.to_owned()).collect();
        assert_eq!(called, listed, "NUMERIC_KNOBS lists a knob nothing reads");
    }

    /// Only this module and the gateway's `crates/gateway/src/lib.rs` (the
    /// two files lint E04 reads as env docs) read `COAXIAL_*` variables
    /// with `std::env`; everything else goes through the helpers here, so a
    /// flag set to `0` means off everywhere.
    #[test]
    fn knobs_are_read_only_through_the_env_doc_files() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = Vec::new();
        rust_sources(&root, &mut files);
        let allowed = [Path::new("crates/sim/src/env.rs"), Path::new("crates/gateway/src/lib.rs")];
        for file in &files {
            if allowed.contains(&file.strip_prefix(&root).expect("under the workspace root")) {
                continue;
            }
            let text = std::fs::read_to_string(file).expect("utf-8 source");
            for call in ["env::var(\"COAXIAL_", "env::var_os(\"COAXIAL_"] {
                assert!(
                    !text.contains(call),
                    "{}: reads a knob with {call}…\"); use coaxial_sim::env instead",
                    file.display()
                );
            }
        }
    }

    #[test]
    fn defaults_pass_through() {
        assert_eq!(env_u64("COAXIAL_TEST_UNSET_VAR", 42), 42);
        assert!(env_flag("COAXIAL_TEST_UNSET_VAR", true));
        assert!(!env_flag("COAXIAL_TEST_UNSET_VAR", false));
    }

    #[test]
    fn parses_set_values() {
        // Unique var names: tests in one binary share the process
        // environment.
        std::env::set_var("COAXIAL_TEST_ENV_U64", "123");
        assert_eq!(env_u64("COAXIAL_TEST_ENV_U64", 7), 123);
        std::env::set_var("COAXIAL_TEST_ENV_U64", "not-a-number");
        assert_eq!(env_u64("COAXIAL_TEST_ENV_U64", 7), 7);

        for off in ["0", "off", "FALSE", "no"] {
            std::env::set_var("COAXIAL_TEST_ENV_FLAG", off);
            assert!(!env_flag("COAXIAL_TEST_ENV_FLAG", true));
        }
        std::env::set_var("COAXIAL_TEST_ENV_FLAG", "on");
        assert!(env_flag("COAXIAL_TEST_ENV_FLAG", false));
    }

    #[test]
    fn env_f64_rejects_garbage_and_non_finite() {
        assert_eq!(env_f64("COAXIAL_TEST_UNSET_VAR", 0.25), 0.25);
        std::env::set_var("COAXIAL_TEST_ENV_F64", "0.05");
        assert_eq!(env_f64("COAXIAL_TEST_ENV_F64", 1.0), 0.05);
        std::env::set_var("COAXIAL_TEST_ENV_F64", "inf");
        assert_eq!(env_f64("COAXIAL_TEST_ENV_F64", 1.0), 1.0, "non-finite falls back");
        std::env::set_var("COAXIAL_TEST_ENV_F64", "not-a-number");
        assert_eq!(env_f64("COAXIAL_TEST_ENV_F64", 1.0), 1.0);
        std::env::remove_var("COAXIAL_TEST_ENV_F64");
    }

    #[test]
    fn checkpoint_dir_empty_means_disabled() {
        // checkpoint_dir() reads a fixed name, so this test owns it; no
        // other test in this binary touches COAXIAL_CHECKPOINT_DIR.
        std::env::remove_var("COAXIAL_CHECKPOINT_DIR");
        assert_eq!(checkpoint_dir(), None);
        std::env::set_var("COAXIAL_CHECKPOINT_DIR", "");
        assert_eq!(checkpoint_dir(), None, "empty value disables the tier");
        std::env::set_var("COAXIAL_CHECKPOINT_DIR", "/tmp/ckpt");
        assert_eq!(checkpoint_dir(), Some(std::path::PathBuf::from("/tmp/ckpt")));
        std::env::remove_var("COAXIAL_CHECKPOINT_DIR");
    }
}
