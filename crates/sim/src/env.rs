//! Environment-variable knobs shared across the workspace.
//!
//! Every binary, bench, and test honours the same small set of `COAXIAL_*`
//! variables; this module is the single place that parses them so the
//! semantics (and the defaults) cannot drift between crates.
//!
//! | Variable          | Meaning                                            |
//! |-------------------|----------------------------------------------------|
//! | `COAXIAL_INSTR`   | instructions per core in the measured region       |
//! | `COAXIAL_WARMUP`  | instructions per core of cache/DRAM warmup         |
//! | `COAXIAL_JOBS`    | worker threads for the parallel experiment runner  |
//! | `COAXIAL_SKIP`    | `off`/`0`/`false` disables hot-loop cycle skipping |
//! | `COAXIAL_ENGINE`  | run-loop engine: `event` (default) or `lockstep`   |
//! | `COAXIAL_DEBUG`   | end-of-run engine diagnostics on stderr            |
//! | `COAXIAL_PREFILL_CACHE_MB` | byte budget (MB) for each cross-run prefill cache |
//! | `COAXIAL_CHECKPOINT_DIR` | disk tier for the post-prefill checkpoint store |
//! | `COAXIAL_F2A_CYCLES` | fig2a bench: simulated cycles per load-latency point |
//! | `COAXIAL_F6_WEIGHTED` | fig6 bench: also emit the weighted-speedup column |
//! | `COAXIAL_F7_ALL` | fig7 bench: average over all workloads, not the subset |
//! | `COAXIAL_SAMPLING` | enable SMARTS-style interval sampling for `coaxial run` |
//! | `COAXIAL_SAMPLING_INTERVALS` | measurement intervals per sampled run (default 10) |
//! | `COAXIAL_SAMPLING_MEASURE` | measured instructions per core per interval (default 2000) |
//! | `COAXIAL_SAMPLING_WARM` | detailed warm-up instructions per core per interval (default 2000) |
//! | `COAXIAL_SAMPLING_CI` | relative CI half-width target for early stopping (0 = off) |
//!
//! The gateway's `COAXIAL_GATEWAY_*` family is documented in
//! `crates/gateway/src/lib.rs` next to the code that parses it.

/// Read a `u64` from the environment, falling back to `default` when the
/// variable is unset or unparsable.
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
/// stray `inf`/`nan` cannot poison deterministic arithmetic downstream.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| v.is_finite())
        .unwrap_or(default)
}

/// Whether `coaxial run` executes in SMARTS-style interval-sampling mode
/// (`COAXIAL_SAMPLING`, off by default). Sampling is an explicit opt-in —
/// never inferred — because sampled and full-detail reports are different
/// estimators of the same workload and must not be served interchangeably
/// from result caches.
pub fn sampling() -> bool {
    env_flag("COAXIAL_SAMPLING", false)
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
/// defaults to the host's available parallelism.
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

/// Byte budget, in MB, for *each* of the simulation driver's cross-run
/// prefill caches — warmed cache state and generated access streams
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
    use super::*;

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
