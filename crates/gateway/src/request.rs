//! Request validation and canonical keying.
//!
//! A request body is rejected (HTTP 400) on any unknown field, wrong
//! type, unknown workload/config/engine name, or structurally invalid
//! configuration ([`coaxial_system::ConfigError`] — the same message the
//! CLI prints). Accepted requests canonicalize into a [`RunSpec`] plus a
//! domain-tagged FNV-1a-128 key: two bodies that describe the same
//! simulation hash identically regardless of field order or whitespace,
//! which is what the result cache and the in-flight dedup map key on.

use std::collections::BTreeMap;

use coaxial_sim::KeyHasher;
use coaxial_system::runner::RunSpec;
use coaxial_system::server::{DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP};
use coaxial_system::{EngineKind, SystemConfig};
use coaxial_telemetry::json::{parse, Json};
use coaxial_workloads::Workload;

/// One validated `POST /v1/run` body.
#[derive(Clone)]
pub struct RunRequest {
    pub spec: RunSpec,
    /// Canonical content key (cache + dedup layers).
    pub key: u128,
    /// Capture a Perfetto trace alongside the report.
    pub trace: bool,
    /// `202 Accepted` + job id instead of blocking for the report.
    pub background: bool,
}

/// One validated `POST /v1/sweep` body: the same workload and budget
/// across several configurations, fanned out over the run pool.
#[derive(Clone)]
pub struct SweepRequest {
    pub specs: Vec<RunSpec>,
    pub key: u128,
    pub background: bool,
}

fn obj(body: &[u8]) -> Result<BTreeMap<String, Json>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    match parse(text)? {
        Json::Obj(o) => Ok(o),
        _ => Err("request body must be a JSON object".to_string()),
    }
}

fn check_fields(o: &BTreeMap<String, Json>, allowed: &[&str]) -> Result<(), String> {
    for key in o.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unknown field \"{key}\" (allowed: {})", allowed.join(", ")));
        }
    }
    Ok(())
}

fn get_u64(o: &BTreeMap<String, Json>, key: &str, default: u64) -> Result<u64, String> {
    match o.get(key) {
        None => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| format!("\"{key}\" must be a non-negative integer")),
    }
}

fn get_bool(o: &BTreeMap<String, Json>, key: &str) -> Result<bool, String> {
    match o.get(key) {
        None => Ok(false),
        Some(v) => v.as_bool().ok_or_else(|| format!("\"{key}\" must be a boolean")),
    }
}

fn get_engine(o: &BTreeMap<String, Json>) -> Result<Option<EngineKind>, String> {
    match o.get("engine") {
        None => Ok(None),
        // Validated here, by string, so a bad name is a 400 — never a
        // worker-side panic (EngineKind::parse aborts on unknown names).
        Some(v) => match v.as_str() {
            Some("event") => Ok(Some(EngineKind::Event)),
            Some("lockstep") => Ok(Some(EngineKind::Lockstep)),
            _ => Err("\"engine\" must be \"event\" or \"lockstep\"".to_string()),
        },
    }
}

fn workload_by_name(name: &str) -> Result<&'static Workload, String> {
    Workload::by_name(name).ok_or_else(|| format!("unknown workload \"{name}\""))
}

/// Shared scalar options between run and sweep bodies.
struct CommonOpts {
    instructions: u64,
    warmup: u64,
    cores: Option<u64>,
    seed: Option<u64>,
    cxl_ns: Option<f64>,
    engine: Option<EngineKind>,
}

fn common_opts(o: &BTreeMap<String, Json>) -> Result<CommonOpts, String> {
    let cores = match o.get("cores") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or("\"cores\" must be a non-negative integer")?),
    };
    let seed = match o.get("seed") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or("\"seed\" must be a non-negative integer")?),
    };
    let cxl_ns = match o.get("cxl_ns") {
        None => None,
        Some(v) => Some(v.as_f64().ok_or("\"cxl_ns\" must be a number")?),
    };
    Ok(CommonOpts {
        instructions: get_u64(o, "instructions", DEFAULT_INSTRUCTIONS)?,
        warmup: get_u64(o, "warmup", DEFAULT_WARMUP)?,
        cores,
        seed,
        cxl_ns,
        engine: get_engine(o)?,
    })
}

/// Build the configured system exactly as the CLI does: name lookup,
/// active-core override, then CXL latency and seed overrides.
fn build_config(name: &str, opts: &CommonOpts) -> Result<SystemConfig, String> {
    let mut cfg = SystemConfig::by_name(name).map_err(|e| e.to_string())?;
    if let Some(n) = opts.cores {
        cfg = cfg.try_with_active_cores(coaxial_sim::idx(n)).map_err(|e| e.to_string())?;
    }
    if let Some(ns) = opts.cxl_ns {
        cfg = cfg.with_cxl_latency_ns(ns);
    }
    if let Some(seed) = opts.seed {
        cfg = cfg.with_seed(seed);
    }
    Ok(cfg)
}

fn hash_common(h: &mut KeyHasher, workload: &str, config_names: &[&str], opts: &CommonOpts) {
    h.write_str(workload);
    h.write_u64(config_names.len() as u64);
    for name in config_names {
        h.write_str(name);
    }
    h.write_u64(opts.instructions);
    h.write_u64(opts.warmup);
    // Optional fields hash a presence tag first so `cores: 12` and an
    // absent `cores` (identical simulations, different requests) cannot
    // collide with some other field combination.
    h.write_u64(u64::from(opts.cores.is_some()));
    h.write_u64(opts.cores.unwrap_or(0));
    h.write_u64(u64::from(opts.seed.is_some()));
    h.write_u64(opts.seed.unwrap_or(0));
    h.write_u64(u64::from(opts.cxl_ns.is_some()));
    h.write_u64(opts.cxl_ns.unwrap_or(0.0).to_bits());
    h.write_u64(match opts.engine {
        None => 0,
        Some(EngineKind::Event) => 1,
        Some(EngineKind::Lockstep) => 2,
    });
}

/// Parse and validate a `POST /v1/run` body.
pub fn parse_run(body: &[u8]) -> Result<RunRequest, String> {
    let o = obj(body)?;
    check_fields(
        &o,
        &[
            "workload",
            "config",
            "instructions",
            "warmup",
            "cores",
            "seed",
            "cxl_ns",
            "engine",
            "trace",
            "async",
        ],
    )?;
    let workload = o
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("\"workload\" (string) is required")?
        .to_string();
    let w = workload_by_name(&workload)?;
    let config =
        o.get("config").map_or(Ok("4x"), |v| v.as_str().ok_or("\"config\" must be a string"))?;
    let opts = common_opts(&o)?;
    let trace = get_bool(&o, "trace")?;
    let background = get_bool(&o, "async")?;

    let cfg = build_config(config, &opts)?;
    let mut spec = RunSpec::homogeneous(cfg, w, opts.instructions, opts.warmup);
    if let Some(kind) = opts.engine {
        spec = spec.with_engine(kind);
    }

    let mut h = KeyHasher::new("coaxial/gateway/run/v1");
    hash_common(&mut h, w.name, &[config], &opts);
    h.write_u64(u64::from(trace));
    // `async` is delivery, not content: a blocking and a background
    // request for the same simulation share a key (and a job).
    Ok(RunRequest { spec, key: h.finish(), trace, background })
}

/// Parse and validate a `POST /v1/sweep` body.
pub fn parse_sweep(body: &[u8]) -> Result<SweepRequest, String> {
    let o = obj(body)?;
    check_fields(
        &o,
        &[
            "workload",
            "configs",
            "instructions",
            "warmup",
            "cores",
            "seed",
            "cxl_ns",
            "engine",
            "async",
        ],
    )?;
    let workload = o
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("\"workload\" (string) is required")?
        .to_string();
    let w = workload_by_name(&workload)?;
    let configs: Vec<&str> = match o.get("configs") {
        Some(Json::Arr(items)) if !items.is_empty() => items
            .iter()
            .map(|v| v.as_str().ok_or("\"configs\" entries must be strings".to_string()))
            .collect::<Result<_, _>>()?,
        _ => return Err("\"configs\" (non-empty array of config names) is required".to_string()),
    };
    let opts = common_opts(&o)?;
    let background = get_bool(&o, "async")?;

    let mut specs = Vec::with_capacity(configs.len());
    for name in &configs {
        let cfg = build_config(name, &opts)?;
        let mut spec = RunSpec::homogeneous(cfg, w, opts.instructions, opts.warmup);
        if let Some(kind) = opts.engine {
            spec = spec.with_engine(kind);
        }
        specs.push(spec);
    }

    let mut h = KeyHasher::new("coaxial/gateway/sweep/v1");
    hash_common(&mut h, w.name, &configs, &opts);
    Ok(SweepRequest { specs, key: h.finish(), background })
}

#[cfg(test)]
mod tests {
    use super::*;
    use coaxial_sim::{idx, SplitMix64};

    #[test]
    fn field_order_and_whitespace_do_not_change_the_key() {
        let a = parse_run(br#"{"workload":"mcf","config":"4x","instructions":4000}"#).unwrap();
        let b =
            parse_run(b"{ \"instructions\": 4000,\n \"config\": \"4x\", \"workload\": \"mcf\" }")
                .unwrap();
        assert_eq!(a.key, b.key);
        assert_eq!(a.spec.config.name, "COAXIAL-4x");
    }

    #[test]
    fn different_requests_get_different_keys() {
        let base = parse_run(br#"{"workload":"mcf"}"#).unwrap();
        for other in [
            br#"{"workload":"lbm"}"#.as_slice(),
            br#"{"workload":"mcf","config":"ddr"}"#.as_slice(),
            br#"{"workload":"mcf","instructions":999}"#.as_slice(),
            br#"{"workload":"mcf","engine":"lockstep"}"#.as_slice(),
            br#"{"workload":"mcf","trace":true}"#.as_slice(),
            br#"{"workload":"mcf","cores":12}"#.as_slice(),
        ] {
            assert_ne!(base.key, parse_run(other).unwrap().key);
        }
        // Delivery mode is not content.
        let bg = parse_run(br#"{"workload":"mcf","async":true}"#).unwrap();
        assert_eq!(base.key, bg.key);
        assert!(bg.background);
    }

    #[test]
    fn bad_bodies_are_structured_errors() {
        let deep = "[".repeat(100_000);
        for (body, needle) in [
            (br#"{"workload":"nope"}"#.as_slice(), "unknown workload"),
            (br#"{"workload":"mcf","config":"9x"}"#.as_slice(), "unknown config"),
            (br#"{"workload":"mcf","engine":"warp"}"#.as_slice(), "engine"),
            (br#"{"workload":"mcf","cores":0}"#.as_slice(), "active core"),
            (br#"{"workload":"mcf","cores":13}"#.as_slice(), "active core"),
            (br#"{"workload":"mcf","bogus":1}"#.as_slice(), "unknown field"),
            (br#"{"workload":"mcf","instructions":-5}"#.as_slice(), "integer"),
            (br#"[1,2]"#.as_slice(), "object"),
            (b"not json".as_slice(), "invalid literal"),
            (deep.as_bytes(), "nesting"),
        ] {
            let Err(err) = parse_run(body).map(|_| ()) else {
                panic!("{body:?} should be rejected")
            };
            assert!(err.contains(needle), "{body:?} => {err}");
        }
    }

    #[test]
    fn sweep_builds_one_spec_per_config() {
        let s = parse_sweep(
            br#"{"workload":"mcf","configs":["ddr","4x"],"instructions":2000,"warmup":500}"#,
        )
        .unwrap();
        assert_eq!(s.specs.len(), 2);
        assert_eq!(s.specs[0].config.name, "DDR-baseline");
        assert_eq!(s.specs[1].config.name, "COAXIAL-4x");
        assert!(parse_sweep(br#"{"workload":"mcf","configs":[]}"#).is_err());
        assert!(parse_sweep(br#"{"workload":"mcf"}"#).is_err());
    }

    /// Seeded mutation fuzzer over the JSON parser and both validators:
    /// valid run and sweep bodies take bit flips, truncations, splices
    /// from each other, and runs of `[`, `{`, `"` or `\`. Every body must
    /// come back `Ok` or `Err`; none may panic.
    #[test]
    fn seeded_fuzz_never_panics() {
        let seeds: [&[u8]; 4] = [
            br#"{"workload":"mcf","config":"4x","instructions":4000,"warmup":1000}"#,
            br#"{"workload":"lbm","config":"ddr","cores":4,"seed":7,"cxl_ns":70.5,"engine":"lockstep","trace":true}"#,
            br#"{"workload":"mcf","configs":["ddr","4x"],"instructions":2000,"warmup":500}"#,
            br#"{ "workload" : "mcf", "configs" : [ "2x" ], "cxl_ns" : 1e2, "async" : true }"#,
        ];
        let pick = |rng: &mut SplitMix64, n: usize| idx(rng.next_below(n as u64));
        let mut rng = SplitMix64::new(0x4a53_4f4e);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..2000 {
            let mut body = seeds[pick(&mut rng, seeds.len())].to_vec();
            for _ in 0..=rng.next_below(4) {
                let at = pick(&mut rng, body.len() + 1);
                let insert: Vec<u8> = match rng.next_below(4) {
                    0 => {
                        if let Some(b) = body.get_mut(at) {
                            *b ^= 1 << rng.next_below(8);
                        }
                        continue;
                    }
                    1 => {
                        body.truncate(at);
                        continue;
                    }
                    2 => {
                        let other = seeds[pick(&mut rng, seeds.len())];
                        let from = pick(&mut rng, other.len());
                        other[from..from + pick(&mut rng, other.len() - from + 1)].to_vec()
                    }
                    _ => vec![b"[{\"\\"[pick(&mut rng, 4)]; [1, 8, 200, 20_000][pick(&mut rng, 4)]],
                };
                body.splice(at..at, insert);
            }
            for outcome in [parse_run(&body).map(|_| ()), parse_sweep(&body).map(|_| ())] {
                if outcome.is_ok() {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
        assert!(accepted > 0 && rejected > 0, "the fuzzer must reach both outcomes");
    }
}
