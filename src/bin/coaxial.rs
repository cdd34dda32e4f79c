//! `coaxial` — command-line front end to the COAXIAL reproduction.
//!
//! ```text
//! coaxial list                               # the 36 workloads
//! coaxial configs                            # Table II / III configurations
//! coaxial run <workload> [config opts] [--json] [--sampled] # one simulation, full report
//! coaxial compare <workload> [budget opts]   # baseline vs every COAXIAL variant
//! coaxial sweep-latency <workload> [budget opts] # CXL latency premium sweep
//! coaxial breakdown <workload> [config opts] # per-component L2-miss latency
//! coaxial trace <workload> <out.json> [config opts] [trace opts] # Perfetto/Chrome event trace
//! coaxial profile <workload> [--ops N]       # characterize a generator
//! coaxial capture <workload> <file> [--ops N]
//! coaxial replay <file> [config opts]        # run a captured .cxtr trace
//! coaxial checkpoint-stats [workload] [config opts] # prefill checkpoint hit rate over two runs
//! coaxial exp <id> [--instr N] [--warmup N]  # one paper table/figure: fig5, table4, ablations…
//! coaxial serve [serve options]              # HTTP gateway: POST /v1/run etc.
//! coaxial http <METHOD> <url> [body]         # tiny HTTP client for scripts
//!
//! A subcommand takes only the options its line names; any other exits 2.
//!
//! budget opts:
//!   --instr <n>       measured instructions per core    (default: 120000)
//!   --warmup <n>      warmup instructions per core      (default: 20000)
//!   --cores <n>       active cores (1..12)              (default: 12)
//! config opts: the budget opts and
//!   --config <name>   ddr | 2x | 4x | 5x | asym        (default: 4x)
//!   --cxl-ns <f>      CXL latency premium override in ns
//! run only:
//!   --json            emit the report as one JSON line
//!   --sampled         SMARTS interval sampling; --instr is the
//!                     total horizon, COAXIAL_SAMPLING* shape the intervals
//! trace opts:
//!   --trace-start <c> --trace-end <c>     trace window in cycles
//!   --trace-cap <n>   trace ring capacity in events     (default: 65536)
//! profile and capture:
//!   --ops <n>         generator ops to read             (default: 100000)
//!
//! serve options (defaults from COAXIAL_GATEWAY_* env, see coaxial-gateway):
//!   --addr <host:port>   listen address (":0" picks an ephemeral port)
//!   --workers <n>        simulation worker threads
//!   --queue-depth <n>    queued jobs admitted before 429
//!   --cache-mb <n>       result-cache byte budget, in MB
//!   --rate <n>           per-client requests/second, 0 disables
//!   --burst <n>          per-client token-bucket burst
//!   --port-file <path>   write the bound address here once listening
//! ```

use std::process::exit;

use coaxial::cpu::tracefile;
use coaxial::system::experiments::{latency_breakdown, run_grid, Budget};
use coaxial::system::runner::{run_all, RunSpec};
use coaxial::system::{RunReport, SamplingConfig, SamplingSummary, Simulation, SystemConfig};
use coaxial::telemetry::TelemetryRecorder;
use coaxial::workloads::Workload;

struct Opts {
    config: String,
    instr: u64,
    warmup: u64,
    cores: usize,
    cxl_ns: Option<f64>,
    json: bool,
    sampled: bool,
    ops: usize,
    trace_start: u64,
    trace_end: u64,
    trace_cap: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            config: "4x".into(),
            instr: coaxial::system::server::DEFAULT_INSTRUCTIONS,
            warmup: coaxial::system::server::DEFAULT_WARMUP,
            cores: 12,
            cxl_ns: None,
            json: false,
            sampled: false,
            ops: 100_000,
            trace_start: 0,
            trace_end: u64::MAX,
            trace_cap: 1 << 16,
        }
    }
}

/// Print the leading `//!` block above as the usage text and exit 2.
fn usage() -> ! {
    let header = include_str!("coaxial.rs").lines().map_while(|l| l.strip_prefix("//!"));
    for line in header {
        eprintln!("{}", line.strip_prefix(' ').unwrap_or(line));
    }
    exit(2)
}

/// Parse the value of a numeric option, or exit 2 naming the option.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} wants a number, got {value:?}");
        exit(2)
    })
}

const BUDGET: &[&str] = &["--instr", "--warmup", "--cores"];
const CONFIG: &[&str] = &["--config", "--instr", "--warmup", "--cores", "--cxl-ns"];

/// The options each subcommand reads, as its usage line names them.
const READS: &[(&str, &[&str])] = &[
    ("run", &["--config", "--instr", "--warmup", "--cores", "--cxl-ns", "--json", "--sampled"]),
    ("compare", BUDGET),
    ("sweep-latency", BUDGET),
    ("breakdown", CONFIG),
    ("checkpoint-stats", CONFIG),
    ("replay", CONFIG),
    (
        "trace",
        &[
            "--config",
            "--instr",
            "--warmup",
            "--cores",
            "--cxl-ns",
            "--trace-start",
            "--trace-end",
            "--trace-cap",
        ],
    ),
    ("profile", &["--ops"]),
    ("capture", &["--ops"]),
    ("exp", &["--instr", "--warmup"]),
];

/// Parse subcommand `cmd`'s options. An option `cmd` does not read exits 2
/// naming both, so a flag can never be silently dropped.
fn parse_opts(cmd: &str, args: &[String]) -> Opts {
    let reads = READS.iter().find(|(c, _)| *c == cmd).map_or(&[][..], |(_, r)| *r);
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !reads.contains(&a.as_str()) {
            if READS.iter().any(|(_, r)| r.contains(&a.as_str())) {
                eprintln!("coaxial {cmd} does not take {a}");
            } else {
                eprintln!("unknown option {a}");
            }
            exit(2)
        }
        let mut next = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {a}");
                exit(2)
            })
        };
        match a.as_str() {
            "--config" => o.config = next().clone(),
            "--instr" => o.instr = number(a, next()),
            "--warmup" => o.warmup = number(a, next()),
            "--cores" => o.cores = number(a, next()),
            "--cxl-ns" => o.cxl_ns = Some(number(a, next())),
            "--json" => o.json = true,
            "--sampled" => o.sampled = true,
            "--ops" => o.ops = number(a, next()),
            "--trace-start" => o.trace_start = number(a, next()),
            "--trace-end" => o.trace_end = number(a, next()),
            "--trace-cap" => o.trace_cap = number(a, next()),
            other => unreachable!("READS names {other}, which has no arm"),
        }
    }
    // Values that could only give an empty result.
    if o.ops == 0 {
        eprintln!("--ops must be at least 1");
        exit(2)
    }
    if o.trace_end <= o.trace_start {
        eprintln!("--trace-end must be greater than --trace-start: the window is [start, end)");
        exit(2)
    }
    o
}

fn or_exit<T>(r: Result<T, coaxial::system::ConfigError>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2)
    })
}

/// Config `name` on `--cores` active cores, with a CXL latency premium
/// where given, or exit 2 with the one-line [`ConfigError`] the gateway
/// answers too.
///
/// [`ConfigError`]: coaxial::system::ConfigError
fn config(name: &str, o: &Opts, cxl_ns: Option<f64>) -> SystemConfig {
    or_exit(SystemConfig::configure(name, Some(o.cores), cxl_ns, None))
}

/// The `--config` the command line names, with its `--cxl-ns`.
fn build_config(o: &Opts) -> SystemConfig {
    config(&o.config, o, o.cxl_ns)
}

fn workload(name: &str) -> &'static Workload {
    Workload::by_name(name).unwrap_or_else(|| {
        eprintln!("unknown workload '{name}' — try `coaxial list`");
        exit(2)
    })
}

fn print_report(r: &RunReport) {
    let (on, q, s, x) = r.breakdown_ns;
    println!("config:      {}", r.config_name);
    println!("workloads:   {}", r.workload_names.join(", "));
    println!(
        "IPC:         {:.3} (per core: {})",
        r.ipc,
        r.per_core_ipc.iter().map(|i| format!("{i:.2}")).collect::<Vec<_>>().join(" ")
    );
    println!("MPKI:        {:.1}", r.mpki);
    println!(
        "L2-miss lat: {:.0} ns = on-chip {:.0} + queuing {:.0} + DRAM {:.0} + CXL {:.0}",
        r.l2_miss_latency_ns, on, q, s, x
    );
    println!(
        "bandwidth:   {:.1} GB/s ({:.1} rd + {:.1} wr), {:.0}% of peak",
        r.bandwidth_gbs,
        r.read_gbs,
        r.write_gbs,
        r.utilization * 100.0
    );
    println!("LLC miss ratio among L2 misses: {:.0}%", r.llc_miss_ratio * 100.0);
    if r.calm.decisions() > 0 {
        println!(
            "CALM:        FP {:.1}%/mem-access, FN {:.1}%/LLC-miss over {} decisions",
            r.calm.false_pos_per_mem_access() * 100.0,
            r.calm.false_neg_per_llc_miss() * 100.0,
            r.calm.decisions()
        );
    }
    println!("window:      {} cycles ({} instr/core)", r.cycles, r.instructions);
}

fn print_sampling(s: &SamplingSummary) {
    println!(
        "sampling:    IPC {:.3} ± {:.3} (95% CI) over {} of {} intervals{}",
        s.ipc_mean,
        s.ipc_ci_half,
        s.intervals_run,
        s.intervals_planned,
        if s.early_stopped { " — early stop" } else { "" }
    );
    println!(
        "             {} warm + {} measured instr per core per interval, {} per-core horizon; \
         totals: {} detailed vs {} fast-forwarded instr",
        s.warm_per_interval,
        s.measure_per_interval,
        s.horizon_instructions,
        s.detail_instructions,
        s.fast_forward_instructions
    );
}

fn main() {
    if let Err(e) = coaxial::system::engine::check_env() {
        eprintln!("{e}");
        exit(2)
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "list" => {
            println!("{:<15} {:<8} {:>9} {:>10}", "workload", "suite", "paper IPC", "paper MPKI");
            for w in Workload::all() {
                println!(
                    "{:<15} {:<8} {:>9.2} {:>10}",
                    w.name,
                    format!("{:?}", w.suite),
                    w.paper_ipc,
                    w.paper_mpki
                );
            }
        }
        "configs" => {
            for cfg in [
                SystemConfig::ddr_baseline(),
                SystemConfig::coaxial_2x(),
                SystemConfig::coaxial_4x(),
                SystemConfig::coaxial_5x(),
                SystemConfig::coaxial_asym(),
            ] {
                println!(
                    "{:<13} {:>2} DDR channels, {:>5.1} GB/s peak, LLC {:>3.1} MB/core, CALM {}",
                    cfg.name,
                    cfg.ddr_channels(),
                    cfg.peak_bandwidth_gbs(),
                    cfg.functional.llc_mb_per_core,
                    cfg.timing.calm.label()
                );
            }
        }
        "run" => {
            let Some(wl) = args.get(1) else { usage() };
            let o = parse_opts(cmd, &args[2..]);
            let sim = Simulation::new(build_config(&o), workload(wl))
                .instructions_per_core(o.instr)
                .warmup(o.warmup);
            if o.sampled {
                let r = sim.run_sampled(&SamplingConfig::from_env());
                if o.json {
                    println!("{}", coaxial::gateway::sampled_report_to_json(&r));
                } else {
                    print_report(&r.report);
                    print_sampling(&r.sampling);
                }
            } else if o.json {
                // Same serializer as the gateway's /v1/run — the bodies
                // are byte-identical by construction (check.sh cmp's them).
                println!("{}", coaxial::gateway::report_to_json(&sim.run()));
            } else {
                print_report(&sim.run());
            }
        }
        "compare" => {
            let Some(wl) = args.get(1) else { usage() };
            let o = parse_opts(cmd, &args[2..]);
            let w = workload(wl);
            // One batch across the job pool; reports come back in config order.
            let specs: Vec<RunSpec> = ["ddr", "2x", "4x", "5x", "asym"]
                .into_iter()
                .map(|name| RunSpec::homogeneous(config(name, &o, None), w, o.instr, o.warmup))
                .collect();
            let reports = run_all(&specs);
            let base = &reports[0];
            println!(
                "{:<14} {:>7} {:>9} {:>11} {:>10}",
                "config", "IPC", "speedup", "L2-miss ns", "util"
            );
            for r in &reports {
                println!(
                    "{:<14} {:>7.3} {:>8.2}x {:>11.0} {:>9.0}%",
                    r.config_name,
                    r.ipc,
                    r.speedup_over(base),
                    r.l2_miss_latency_ns,
                    r.utilization * 100.0
                );
            }
        }
        "sweep-latency" => {
            let Some(wl) = args.get(1) else { usage() };
            let o = parse_opts(cmd, &args[2..]);
            let w = workload(wl);
            let latencies = [10.0, 30.0, 50.0, 70.0, 90.0, 120.0];
            // Fig. 10's grid for one workload: the baseline, then 4x at
            // each CXL latency premium.
            let configs: Vec<SystemConfig> = std::iter::once(config("ddr", &o, None))
                .chain(latencies.iter().map(|&ns| config("4x", &o, Some(ns))))
                .collect();
            let budget = Budget { instructions: o.instr, warmup: o.warmup };
            let (_, reports) = run_grid([w], &configs, budget).remove(0);
            let base = &reports[0];
            println!("baseline IPC {:.3}", base.ipc);
            for (ns, r) in latencies.iter().zip(&reports[1..]) {
                println!(
                    "CXL {ns:>5.0} ns: IPC {:.3}  speedup {:.2}x",
                    r.ipc,
                    r.speedup_over(base)
                );
            }
        }
        "breakdown" => {
            let Some(wl) = args.get(1) else { usage() };
            let o = parse_opts(cmd, &args[2..]);
            let budget = Budget { instructions: o.instr, warmup: o.warmup };
            let configs = [config("ddr", &o, None), build_config(&o)];
            let rows = latency_breakdown(&configs, wl, budget);
            println!("mean L2-miss latency attribution on {wl}, ns (measured window)");
            print!("{:<16}", "component");
            for r in &rows {
                print!(" {:>14}", r.config_name);
            }
            println!();
            for i in 0..rows[0].components_ns.len() {
                print!("{:<16}", rows[0].components_ns[i].0);
                for r in &rows {
                    print!(" {:>14.1}", r.components_ns[i].1);
                }
                println!();
            }
            type RowGet = fn(&coaxial::system::experiments::BreakdownRow) -> f64;
            let footers: [(&str, RowGet); 2] =
                [("total (sum)", |r| r.total_ns), ("driver total", |r| r.report_total_ns)];
            for (label, get) in footers {
                print!("{label:<16}");
                for r in &rows {
                    print!(" {:>14.1}", get(r));
                }
                println!();
            }
            print!("{:<16}", "requests");
            for r in &rows {
                print!(" {:>14}", r.requests);
            }
            println!();
            print!("{:<16}", "IPC");
            for r in &rows {
                print!(" {:>14.3}", r.ipc);
            }
            println!();
        }
        "trace" => {
            let (Some(wl), Some(out)) = (args.get(1), args.get(2)) else { usage() };
            let o = parse_opts(cmd, &args[3..]);
            let rec =
                TelemetryRecorder::new().with_trace_window(o.trace_cap, o.trace_start, o.trace_end);
            let (r, rec, _metrics) = Simulation::new(build_config(&o), workload(wl))
                .instructions_per_core(o.instr)
                .warmup(o.warmup)
                .run_with_telemetry(rec);
            std::fs::write(out, rec.tracer.export_chrome_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {out}: {e}");
                exit(1)
            });
            println!(
                "wrote {} events ({} dropped) to {out} — load in https://ui.perfetto.dev or chrome://tracing",
                rec.tracer.len(),
                rec.tracer.dropped()
            );
            print_report(&r);
        }
        "profile" => {
            let Some(wl) = args.get(1) else { usage() };
            let o = parse_opts(cmd, &args[2..]);
            let p = coaxial::workloads::characterize(workload(wl), 0, 42, o.ops as u64);
            println!("workload:        {}", p.workload);
            println!("ops sampled:     {}", p.ops);
            println!("density:         {:.1} mem ops / kilo-instruction", p.density_per_ki);
            println!("write fraction:  {:.1}%", p.write_frac * 100.0);
            println!("dependent ops:   {:.1}%", p.dependent_frac * 100.0);
            println!("sequential ops:  {:.1}%", p.sequential_frac * 100.0);
            println!(
                "unique lines:    {} ({:.1} MB)",
                p.unique_lines,
                p.unique_lines as f64 * 64.0 / 1e6
            );
            println!("line reuse:      {:.1}%", p.reuse_frac * 100.0);
        }
        "capture" => {
            let (Some(wl), Some(path)) = (args.get(1), args.get(2)) else { usage() };
            let o = parse_opts(cmd, &args[3..]);
            let mut src = workload(wl).trace(0, 0xCAB);
            tracefile::capture(std::path::Path::new(path), src.as_mut(), o.ops).unwrap_or_else(
                |e| {
                    eprintln!("capture failed: {e}");
                    exit(1)
                },
            );
            println!("captured {} ops of {wl} to {path}", o.ops);
        }
        "checkpoint-stats" => {
            // Same config + workload twice: the first run populates the
            // prefill store, the second must restore. Exits
            // non-zero if it does not, so check.sh doubles as a smoke test
            // of the content-addressed store.
            let (wl, rest) = match args.get(1) {
                Some(a) if !a.starts_with("--") => (a.as_str(), &args[2..]),
                _ => ("mcf", &args[1..]),
            };
            let o = parse_opts(cmd, rest);
            let w = workload(wl);
            let run = || {
                #[expect(clippy::disallowed_types, reason = "reports each run's host wall time")]
                let t = std::time::Instant::now();
                let (_, _, m) = Simulation::new(build_config(&o), w)
                    .instructions_per_core(o.instr)
                    .warmup(o.warmup)
                    .run_with_telemetry(TelemetryRecorder::new());
                (m, t.elapsed())
            };
            let (cold, cold_wall) = run();
            let (warm, warm_wall) = run();
            let ms = |m: &coaxial::telemetry::MetricsRegistry, p: &str| {
                m.counter(p).unwrap_or(0) as f64 / 1e6
            };
            println!("checkpoint stats: {wl} on {} (two identical runs)", build_config(&o).name);
            for (label, m, wall) in [("cold", &cold, cold_wall), ("warm", &warm, warm_wall)] {
                println!(
                    "{label}: wall {:>7.1} ms, prefill {:>7.1} ms (loop {:>7.1} ms), restored={}",
                    wall.as_secs_f64() * 1e3,
                    ms(m, "server.prefill.wall_ns"),
                    ms(m, "server.prefill.loop_wall_ns"),
                    m.counter("server.prefill.restored").unwrap_or(0)
                );
            }
            let c =
                |name: &str| warm.counter(&format!("server.checkpoint.state.{name}")).unwrap_or(0);
            let (mem, disk, miss) = (c("mem_hits"), c("disk_hits"), c("misses"));
            let lookups = mem + disk + miss;
            println!(
                "state   store: {lookups} lookups — {mem} mem / {disk} disk hits, \
                 {miss} misses ({:.0}% hit), {} inserts, {} evictions, {} disk errors",
                if lookups == 0 { 0.0 } else { (mem + disk) as f64 * 100.0 / lookups as f64 },
                c("inserts"),
                c("evictions"),
                c("disk_errors")
            );
            println!(
                "               {:.0} entries resident, {:.1} MB",
                warm.gauge("server.checkpoint.state.entries").unwrap_or(0.0),
                warm.gauge("server.checkpoint.state.bytes").unwrap_or(0.0) / 1e6
            );
            if warm.counter("server.prefill.restored") != Some(1) {
                eprintln!("checkpoint-stats: second run did not restore from the store");
                exit(1);
            }
        }
        "replay" => {
            let Some(path) = args.get(1) else { usage() };
            let o = parse_opts(cmd, &args[2..]);
            let sim = Simulation::from_trace_file(build_config(&o), path).unwrap_or_else(|e| {
                eprintln!("cannot read trace {path}: {e}");
                exit(1)
            });
            print_report(&sim.instructions_per_core(o.instr).warmup(o.warmup).run());
        }
        "exp" => {
            // The same function the paper's bench target runs, so the two
            // print the same bytes at the same budget.
            let Some(id) = args.get(1) else { usage() };
            let o = parse_opts(cmd, &args[2..]);
            let budget = Budget { instructions: o.instr, warmup: o.warmup };
            if let Err(e) = coaxial_bench::paper::run(id, budget) {
                eprintln!("{e}");
                exit(2)
            }
        }
        "serve" => {
            let mut cfg = coaxial::gateway::GatewayConfig::from_env();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                let mut next = || {
                    it.next().unwrap_or_else(|| {
                        eprintln!("missing value for {a}");
                        exit(2)
                    })
                };
                match a.as_str() {
                    "--addr" => cfg.addr = next().clone(),
                    "--workers" => cfg.workers = number(a, next()),
                    "--queue-depth" => cfg.queue_depth = number(a, next()),
                    "--cache-mb" => cfg.cache_mb = number(a, next()),
                    "--rate" => cfg.rate_per_sec = number(a, next()),
                    "--burst" => cfg.burst = number(a, next()),
                    "--port-file" => cfg.port_file = Some(std::path::PathBuf::from(next())),
                    other => {
                        eprintln!("unknown option {other}");
                        exit(2)
                    }
                }
            }
            match coaxial::gateway::serve(cfg) {
                Ok(stats) => println!(
                    "gateway stopped: {} requests, {} jobs done ({} failed), \
                     {} dedup joins, {} queue rejections",
                    stats.requests_total,
                    stats.jobs_completed,
                    stats.jobs_failed,
                    stats.dedup_joins,
                    stats.queue_rejected
                ),
                Err(e) => {
                    eprintln!("serve failed: {e}");
                    exit(1)
                }
            }
        }
        "http" => {
            // Scripts use this where curl may not exist (offline images);
            // body to stdout, non-2xx/3xx statuses become a non-zero exit.
            let (Some(method), Some(url)) = (args.get(1), args.get(2)) else { usage() };
            let body = args.get(3).map(String::as_str).unwrap_or("");
            match coaxial::gateway::http::client_request(method, url, body.as_bytes()) {
                Ok(resp) => {
                    use std::io::Write as _;
                    std::io::stdout().write_all(&resp.body).expect("stdout");
                    if resp.status >= 400 {
                        eprintln!("HTTP {}", resp.status);
                        exit(1)
                    }
                }
                Err(e) => {
                    eprintln!("http request failed: {e}");
                    exit(1)
                }
            }
        }
        _ => usage(),
    }
}
