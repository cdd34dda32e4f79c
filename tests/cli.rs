//! The `coaxial` binary on malformed numbers: every numeric option and
//! every numeric `COAXIAL_*` knob answers a value that does not parse with
//! one line on stderr and exit status 2, like every other bad command line,
//! instead of a panic or a silent default.

use std::process::{Command, Stdio};
use std::time::Duration;

/// Run `coaxial <args>` with `env` added; return its exit code and stderr.
/// A run still going after 60 s is killed and reads as no exit code (a
/// `serve` that ignored a bad knob would otherwise never return).
fn coaxial_with(env: &[(&str, &str)], args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_coaxial"))
        .args(args)
        .envs(env.iter().copied())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run coaxial");
    for _ in 0..600 {
        if child.try_wait().expect("poll coaxial").is_some() {
            let out = child.wait_with_output().expect("collect coaxial");
            return (out.status.code(), String::from_utf8(out.stderr).expect("utf-8 stderr"));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    child.kill().expect("kill coaxial");
    child.wait().expect("reap coaxial");
    (None, "still running after 60 s".into())
}

/// Run `coaxial <args>`; return its exit code and stderr.
fn coaxial(args: &[&str]) -> (Option<i32>, String) {
    coaxial_with(&[], args)
}

#[test]
fn malformed_numbers_exit_2_with_one_line() {
    let run_flags =
        ["--instr", "--warmup", "--cores", "--cxl-ns", "--ops", "--trace-start", "--trace-end"];
    let cases = run_flags
        .iter()
        .map(|&flag| vec!["run", "mcf", flag, "12k"])
        .chain([vec!["trace", "mcf", "out.json", "--trace-cap", "12k"]])
        .chain([vec!["serve", "--workers", "12k"]]);
    for args in cases {
        let flag = args[args.len() - 2];
        assert_eq!(
            coaxial(&args),
            (Some(2), format!("{flag} wants a number, got \"12k\"\n")),
            "coaxial {}",
            args.join(" ")
        );
    }
}

#[test]
fn malformed_numeric_knobs_exit_2_with_one_line() {
    let cases: [(&str, &str, &[&str]); 4] = [
        (
            "COAXIAL_SAMPLING_INTERVALS",
            "3x",
            &["run", "mcf", "--sampled", "--instr", "20000", "--json"],
        ),
        ("COAXIAL_SAMPLING_CI", "inf", &["run", "mcf", "--sampled", "--instr", "20000"]),
        ("COAXIAL_GATEWAY_WORKERS", "2x", &["serve", "--addr", "127.0.0.1:0"]),
        ("COAXIAL_JOBS", "-1", &["list"]),
    ];
    for (knob, value, args) in cases {
        assert_eq!(
            coaxial_with(&[(knob, value)], args),
            (Some(2), format!("{knob} wants a number, got \"{value}\"\n")),
            "{knob}={value} coaxial {}",
            args.join(" ")
        );
    }
}
