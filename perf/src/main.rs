//! coaxial-perf — run one benchmark workload and print its metrics.
//!
//!   coaxial-perf --workload <name|all> [--seed N] [--seconds S]
//!                [--trace 0|1] [--smoke]
//!
//! Workloads: sweep-cold, run-detailed, serve-mixed, sampled-horizon.
//! `--trace 0` (the default) prints the end-to-end metrics, `--trace 1`
//! the per-layer profile. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

use std::process::{Command, ExitCode};

use coaxial_perf::catalog::{self, Metric};
use coaxial_perf::{Measured, Settings};

const USAGE: &str =
    "usage: coaxial-perf --workload <sweep-cold|run-detailed|serve-mixed|sampled-horizon|all> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

/// The configs' default seed (`SystemConfig::base`).
const DEFAULT_SEED: u64 = 0xC0A_51A1;

fn parse_u64(v: &str) -> Option<u64> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<(String, Settings), String> {
    let mut workload = None;
    let mut s = Settings { seed: DEFAULT_SEED, seconds: 20.0, traced: false, smoke: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => s.seed = parse_u64(value()?).ok_or("--seed takes an integer")?,
            "--seconds" => {
                s.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                s.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--smoke" => s.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && coaxial_perf::jobs_for(&workload).is_none() {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok((workload, s))
}

/// `--workload all`: each workload in its own process, so peak RSS and the
/// process-global checkpoint stores are per workload.
fn run_each_workload(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("coaxial-perf: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in catalog::WORKLOADS {
        let mut child_args = args.to_vec();
        if let Some(i) = child_args.iter().position(|a| a == "--workload") {
            child_args[i + 1] = w.to_string();
        }
        let status = Command::new(&exe).args(&child_args).status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown (not a git checkout)".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Print the notes, a metric table, and the result line.
fn print(workload: &str, s: &Settings, m: &Measured) {
    let catalog: &[Metric] = if s.traced { catalog::PER_LAYER } else { catalog::END_TO_END };
    for note in &m.notes {
        println!("  {note}");
    }
    let mut finite = true;
    let mut json = Vec::new();
    for metric in catalog {
        let value = m
            .metrics
            .iter()
            .find(|(n, _)| *n == metric.name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("{workload} did not report {}", metric.name));
        finite &= value.is_finite();
        let value = if value.is_finite() { value } else { 0.0 };
        println!("  {:<30} {:>16.6} {}", metric.name, value, metric.unit);
        json.push(format!(
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            metric.name, metric.unit
        ));
    }
    let correct = finite && m.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        m.attempted.max(1),
        m.failed,
        json.join(",")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, s) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("coaxial-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) && !s.smoke {
        eprintln!("coaxial-perf: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    if workload == "all" {
        return run_each_workload(&args);
    }

    // Inherited knobs would change what is measured; the job count is set
    // per workload instead.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("COAXIAL_") {
            std::env::remove_var(key);
        }
    }
    let jobs = coaxial_perf::jobs_for(&workload).expect("validated by parse");
    std::env::set_var("COAXIAL_JOBS", jobs);

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "coaxial-perf {workload} ({}): nproc {nproc}, commit {}, seed {:#x}, COAXIAL_JOBS {jobs}, \
         set-up repeats {}, clock stride {}, measured {} s",
        if s.traced { "traced" } else { "untraced" },
        commit(),
        s.seed,
        s.setups(),
        coaxial_perf::STRIDE,
        s.seconds,
    );
    match coaxial_perf::run_workload(&workload, &s) {
        Ok(m) => {
            print(&workload, &s, &m);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("coaxial-perf: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
