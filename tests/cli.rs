//! The `coaxial` binary end to end.
//!
//! On bad input: every numeric option and every numeric `COAXIAL_*` knob
//! that does not parse, an option the subcommand does not read, a value
//! that could only give an empty result, an unknown `COAXIAL_ENGINE` and
//! an active-core count the config cannot take each answer one line on
//! stderr and exit status 2, like every other bad command line, instead
//! of a panic, an empty output or a silent default.
//!
//! On docs: every option a README.md or EXPERIMENTS.md command line passes
//! to `coaxial` is one its usage text lists.
//!
//! On output: the `run --sampled --json` stdout of two workloads on the
//! DDR baseline and COAXIAL-4x is pinned to the digests in
//! `tests/golden_cli_sampled_digests.txt`, through the golden helper the
//! `coaxial-system` differential suites share.

#[path = "../crates/system/tests/golden/mod.rs"]
mod golden;

use std::collections::BTreeSet;
use std::path::Path;
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
    let run_flags = ["--instr", "--warmup", "--cores", "--cxl-ns"];
    let trace_flags = ["--trace-start", "--trace-end", "--trace-cap"];
    let cases = run_flags
        .iter()
        .map(|&flag| vec!["run", "mcf", flag, "12k"])
        .chain(trace_flags.iter().map(|&flag| vec!["trace", "mcf", "out.json", flag, "12k"]))
        .chain([vec!["profile", "mcf", "--ops", "12k"]])
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

/// An option another subcommand reads is refused, not silently dropped.
#[test]
fn options_a_subcommand_does_not_read_exit_2_with_one_line() {
    let cases: [&[&str]; 3] = [
        &["compare", "mcf", "--instr", "2000", "--warmup", "500", "--cxl-ns", "120"],
        &["sweep-latency", "mcf", "--instr", "2000", "--warmup", "500", "--config", "5x"],
        &["profile", "mcf", "--instr", "10"],
    ];
    for args in cases {
        let (sub, flag) = (args[0], args[args.len() - 2]);
        assert_eq!(
            coaxial(args),
            (Some(2), format!("coaxial {sub} does not take {flag}\n")),
            "coaxial {}",
            args.join(" ")
        );
    }
}

/// Zero generator ops and an empty trace window are refused before any
/// file is written: `profile` used to panic, and `capture` and `trace` to
/// write an empty trace or event file and exit 0.
#[test]
fn values_that_give_an_empty_result_exit_2_with_one_line() {
    let file =
        |ext| std::env::temp_dir().join(format!("coaxial-empty-{}.{ext}", std::process::id()));
    let (cxtr, json) = (file("cxtr"), file("json"));
    let (cxtr, json) = (cxtr.to_str().unwrap(), json.to_str().unwrap());
    for path in [cxtr, json] {
        let _ = std::fs::remove_file(path);
    }
    let ops = "--ops must be at least 1\n";
    let window = "--trace-end must be greater than --trace-start: the window is [start, end)\n";
    let budget = ["--instr", "2000", "--warmup", "500"];
    let trace = |start, end| {
        let window = ["--trace-start", start, "--trace-end", end];
        [&["trace", "mcf", json][..], &budget, &window].concat()
    };
    let cases = [
        (vec!["profile", "mcf", "--ops", "0"], ops),
        (vec!["capture", "mcf", cxtr, "--ops", "0"], ops),
        (trace("50", "10"), window),
        (trace("50", "50"), window),
    ];
    for (args, want) in cases {
        assert_eq!(coaxial(&args), (Some(2), want.to_string()), "coaxial {}", args.join(" "));
    }
    for path in [cxtr, json] {
        assert!(!std::path::Path::new(path).exists(), "{path} was written");
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

#[test]
fn invalid_core_counts_exit_2_with_one_line() {
    for (sub, n) in [("run", "13"), ("compare", "13"), ("sweep-latency", "0"), ("breakdown", "13")]
    {
        assert_eq!(
            coaxial(&[sub, "mcf", "--cores", n]),
            (Some(2), format!("invalid active core count {n}: must be in 1..=12\n")),
            "coaxial {sub} mcf --cores {n}"
        );
    }
}

#[test]
fn unknown_engine_exits_2_with_one_line() {
    let want = "COAXIAL_ENGINE: unknown engine `typo`: expected event|lockstep\n";
    for args in [&["run", "mcf"][..], &["serve", "--addr", "127.0.0.1:0"]] {
        assert_eq!(
            coaxial_with(&[("COAXIAL_ENGINE", "typo")], args),
            (Some(2), want.to_string()),
            "COAXIAL_ENGINE=typo coaxial {}",
            args.join(" ")
        );
    }
}

/// The `--option` words in `text`.
fn options_in(text: &str) -> BTreeSet<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| {
            w.strip_prefix("--").is_some_and(|o| o.starts_with(|c: char| c.is_ascii_lowercase()))
        })
        .collect()
}

/// Every option a documented `coaxial` command line passes — after
/// `--bin coaxial --`, or on a line starting `coaxial <subcommand>` — is
/// one the usage text lists.
#[test]
fn documented_options_exist() {
    let (code, usage) = coaxial(&[]);
    assert_eq!(code, Some(2), "coaxial with no arguments prints the usage text");
    let known = options_in(&usage);
    let mut checked = 0;
    for doc in ["README.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(doc))
            .expect("readable doc");
        for (n, line) in text.lines().enumerate() {
            for cmd in line.split(['&', '|', ';']).map(str::trim) {
                let args = cmd.split_once("--bin coaxial -- ").map(|(_, a)| a);
                let Some(args) = args.or_else(|| cmd.strip_prefix("coaxial ")) else { continue };
                let args = args.split(" #").next().unwrap_or_default().trim();
                checked += 1;
                for opt in options_in(args) {
                    assert!(
                        known.contains(opt),
                        "{doc}:{}: `coaxial {args}` passes {opt}, which the usage text lacks",
                        n + 1
                    );
                }
            }
        }
    }
    assert!(checked >= 10, "found only {checked} documented coaxial command lines");
}

/// `coaxial <args>`'s stdout, with `env` added; the run must exit 0.
fn stdout_of(env: &[(&str, &str)], args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_coaxial"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("run coaxial");
    assert!(
        out.status.success(),
        "coaxial {}: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

const SAMPLED_GOLDEN: &str = "golden_cli_sampled_digests.txt";

/// A small interval shape, three intervals of 1000 warm + 1000 measured
/// instructions over a 30k horizon, so each run takes well under a second.
const SAMPLED_SHAPE: [(&str, &str); 4] = [
    ("COAXIAL_SAMPLING_INTERVALS", "3"),
    ("COAXIAL_SAMPLING_WARM", "1000"),
    ("COAXIAL_SAMPLING_MEASURE", "1000"),
    ("COAXIAL_SAMPLING_CI", "0"),
];

/// Each pinned `run --sampled --json` and the digest of its stdout.
fn sampled_json_runs() -> impl Iterator<Item = (String, String)> {
    ["mcf", "lbm"].into_iter().flat_map(|wl| ["ddr", "4x"].map(|cfg| (wl, cfg))).map(|(wl, cfg)| {
        let args = ["run", wl, "--config", cfg, "--sampled", "--json", "--instr", "30000"];
        let json = stdout_of(&SAMPLED_SHAPE, &args);
        (format!("{wl}.{cfg}"), golden::digest("golden-cli-sampled", [json.as_str()]))
    })
}

#[test]
fn sampled_json_matches_the_golden_digests() {
    let mut golden = golden::Golden::load(SAMPLED_GOLDEN, "cli", "regenerate_sampled_json_digests");
    for (name, digest) in sampled_json_runs() {
        golden.check(&name, &format!("coaxial run {name} --sampled --json"), &digest);
    }
    golden.assert_clean();
}

#[test]
#[ignore = "rewrites tests/golden_cli_sampled_digests.txt from this build's output"]
fn regenerate_sampled_json_digests() {
    golden::write(SAMPLED_GOLDEN, sampled_json_runs());
}
