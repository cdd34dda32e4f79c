//! The `coaxial` binary on malformed numbers: every numeric option answers
//! a value that does not parse with one line on stderr and exit status 2,
//! like every other bad command line, instead of a panic.

use std::process::Command;

/// Run `coaxial <args>`; return its exit code and stderr.
fn coaxial(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_coaxial")).args(args).output().expect("run coaxial");
    (out.status.code(), String::from_utf8(out.stderr).expect("utf-8 stderr"))
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
