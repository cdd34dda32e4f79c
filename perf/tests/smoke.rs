//! Smoke test: every workload, untraced and traced (which checks that the
//! layer-profiling replica reproduces the production reports), at
//! `--smoke` scale; and the metric catalog against `BENCHMARK.json`.
//!
//!   cargo test --offline --manifest-path perf/Cargo.toml

use std::process::{Command, Output};

use coaxial_perf::catalog::{Metric, END_TO_END, PER_LAYER, WORKLOADS};

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_coaxial-perf"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("coaxial-perf runs")
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// Every `"name": "<x>"` value in the file, in order.
fn names_in(json: &str) -> Vec<&str> {
    json.split("\"name\": \"").skip(1).filter_map(|rest| rest.split('"').next()).collect()
}

#[test]
fn catalog_and_benchmark_json_name_the_same_things() {
    let json = benchmark_json();
    let catalog: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        .collect();
    for name in &catalog {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "{name}: names are [A-Za-z0-9_.-]+"
        );
    }
    let listed = names_in(&json);
    for name in &listed {
        assert!(catalog.contains(name), "BENCHMARK.json names {name}, which the catalog lacks");
    }
    assert_eq!(listed.len(), catalog.len(), "a name is listed twice");
    assert!(WORKLOADS.len() <= 8 && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
}

fn smoke(workload: &str, traced: bool) {
    let trace = if traced { "1" } else { "0" };
    let out = perf(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.1",
        "--trace",
        trace,
        "--smoke",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with("{\"correct\":true,"), "{workload} trace {trace}:\n{stdout}");
    assert!(last.contains("\"failed\":0,"), "{workload} trace {trace}:\n{stdout}");
    let catalog: &[Metric] = if traced { PER_LAYER } else { END_TO_END };
    for m in catalog {
        let entry = format!("\"{}\":{{\"value\":", m.name);
        assert!(last.contains(&entry), "{workload} trace {trace} lacks {}", m.name);
    }
}

#[test]
fn sweep_cold_smoke() {
    smoke("sweep-cold", false);
    smoke("sweep-cold", true);
}

#[test]
fn run_detailed_smoke() {
    smoke("run-detailed", false);
    smoke("run-detailed", true);
}

#[test]
fn serve_mixed_smoke() {
    smoke("serve-mixed", false);
    smoke("serve-mixed", true);
}

#[test]
fn sampled_horizon_smoke() {
    smoke("sampled-horizon", false);
    smoke("sampled-horizon", true);
}

#[test]
fn bad_arguments_and_debug_measurements_are_refused() {
    let out = perf(&["--workload", "nope"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    if cfg!(debug_assertions) {
        let out = perf(&["--workload", "run-detailed", "--seconds", "1"]);
        assert!(!out.status.success(), "a debug build must refuse to measure");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
