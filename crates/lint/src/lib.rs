#![forbid(unsafe_code)]
//! `coaxial-lint` — project-specific static analysis for the COAXIAL
//! simulator workspace.
//!
//! The simulator's core guarantees are behavioral contracts. The
//! token-level ones are clippy lints configured in the root `clippy.toml`
//! and `scripts/check.sh`: no hash iteration, no wall clock or ambient
//! entropy, no truncating casts, a `// SAFETY:` comment on every `unsafe`
//! block. This crate checks the ones clippy cannot express:
//!
//! * **timing arithmetic** — cycle counts are exact `u64`s; floating-point
//!   accumulation corrupts the latency ledger in ways no test that
//!   happens to use small numbers will catch, and every cycles↔ns
//!   conversion goes through one blessed helper with units that agree;
//! * **zero-cost telemetry** — every telemetry stamping site must sit
//!   behind `if T::ENABLED` so the `NullTelemetry` monomorphization
//!   compiles back to the pre-telemetry hot path;
//! * **model fidelity** — a parameter declared in a fidelity-critical
//!   config struct (DDR5 timings, CXL link transfer costs) but never read
//!   by the enforcing code — or never varied by any experiment sweep — is
//!   a silent fidelity bug;
//! * **CLI and lock hygiene** — every documented subcommand and knob is
//!   wired, and no gateway lock is held across a simulation.
//!
//! This crate encodes those contracts as a catalog of lints (see
//! [`CATALOG`], or `docs/LINTS.md` for the long-form rule catalog) and
//! runs them over the workspace source. The build environment is offline
//! (no `syn`), so the analysis is hand-rolled in one token tier and one
//! tree tier:
//!
//! * **tokens** — an exact lexer ([`lexer`]) and a recursive-descent item
//!   parser ([`parser`]) give each file its code tokens and item tree.
//!   T02, Q02, E04 and C01's identifier set read tokens;
//! * **one tree per fn body** — [`body`] parses every body once, when the
//!   file's [`rules::FileCtx`] is built. Everything else reads that tree:
//!   the workspace symbol graph ([`symbols`]: call sites, field reads and
//!   writes, metric paths, lock regions), whose references [`resolve`]
//!   turns into fully-qualified IDs through the module tree, `use`
//!   imports and lightweight type binding; the unit dataflow ([`flow`],
//!   Q01–Q03); and Z01 and E05.
//!
//! Call and read edges are fq-exact where resolution succeeded and fall
//! back to name matching for the unresolved remainder, so the residual
//! imprecision can only hide violations on commonly-named fields, never
//! invent them — the right failure direction for a gate. Residual false
//! positives are handled by a checked-in suppression file,
//! `lint-allow.toml`, in which every entry must carry a reason
//! ([`allow`]).
//!
//! Run as `cargo run -p coaxial-lint --release` (wired into
//! `scripts/check.sh`); exits non-zero on any unsuppressed finding or any
//! stale suppression.

pub mod allow;
pub mod body;
pub mod flow;
pub mod lexer;
pub mod parser;
pub mod resolve;
pub mod rules;
pub mod symbols;

use std::fmt;
use std::path::{Path, PathBuf};

/// A lint violation (or suppression-hygiene problem) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint ID, e.g. `"E01"`.
    pub id: &'static str,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// The identifier or construct the finding anchors on (matched against
    /// the optional `ident` key of suppressions).
    pub ident: String,
    /// Human explanation of what is wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {} ({})", self.path, self.line, self.id, self.message, self.ident)
    }
}

/// One catalog entry: lint ID, one-line contract, rationale.
pub struct LintInfo {
    pub id: &'static str,
    pub summary: &'static str,
    pub rationale: &'static str,
}

/// The lint catalog. IDs are grouped by contract: T=timing arithmetic,
/// Z=zero-cost telemetry, C=config/constraint cross-reference,
/// E=experiment/knob coverage, L=lock discipline, M=metric hygiene,
/// Q=units of measure. The retired D01/D02/T01/U01 are clippy lints now
/// (`clippy.toml`, `scripts/check.sh`; see `docs/LINTS.md`).
pub const CATALOG: &[LintInfo] = &[
    LintInfo {
        id: "T02",
        summary: "no floating-point accumulation in cycle math outside stats/report layers",
        rationale: "floats make cycle arithmetic order-dependent (a+b+c != c+a+b) and \
                    platform-dependent; the latency ledger conservation proof only holds in \
                    exact integers. Convert to f64 only at the reporting boundary.",
    },
    LintInfo {
        id: "Z01",
        summary: "telemetry sink calls must be dominated by an `if T::ENABLED` guard",
        rationale: "an unguarded sink call in TelemetrySink-generic code costs real work in \
                    the NullTelemetry monomorphization and breaks the zero-cost contract \
                    held by the telemetry-equivalence test and the sim_throughput bench. The \
                    sink method set is read from the TelemetrySink trait definition itself, \
                    not a hard-coded name list.",
    },
    LintInfo {
        id: "C01",
        summary: "every declared fidelity parameter must be read by its enforcing code",
        rationale: "a field in a fidelity-critical config struct (DramTimings, CxlLinkConfig) \
                    that the scheduling/link-pipeline code never reads is a \
                    declared-but-unenforced parameter — the config claims a fidelity the \
                    simulator does not deliver.",
    },
    LintInfo {
        id: "E01",
        summary: "every pub config field must be read somewhere in model code",
        rationale: "CXL-memory characterization studies (CXL-DMSim, CXLMemSim) show that \
                    silently-unused fidelity knobs corrupt results: the config advertises a \
                    parameter the model ignores. Every pub field of DramTimings/DramConfig/\
                    CxlLinkConfig/SystemConfig must have a field-read site in non-test model \
                    code — wire the knob in or delete it.",
    },
    LintInfo {
        id: "E02",
        summary: "every pub config field must be exercised by a sweep or env override",
        rationale: "a knob that is read by the model but that no experiment in \
                    experiments.rs/env.rs ever varies is untested fidelity: nothing would \
                    notice if its wiring broke. A field counts as exercised when a \
                    config-layer fn reachable from the experiment entry points writes it \
                    from a parameter (a builder the sweeps vary) or from two distinct \
                    reachable constructors (a variant-pair comparison).",
    },
    LintInfo {
        id: "E03",
        summary: "timing-half config fields must not be readable from the prefill call graph",
        rationale: "post-prefill machine state is checkpointed in a content-addressed store \
                    keyed by the functional config slice alone (workloads, seed, cores, \
                    cache geometry), so every timing sibling — CXL latency, DRAM timings, \
                    CALM policy, prefetch degree — shares one warmed snapshot. That is \
                    sound only while nothing reachable from the prefill entry points reads \
                    a TimingConfig field; a single timing read silently makes restored runs \
                    diverge from cold ones. Constructor/builder callees (new/with_*/…) are \
                    exempt: they consume timing to build the machine, not to warm it.",
    },
    LintInfo {
        id: "E04",
        summary: "CLI surface closed under documentation: subcommands, flags, env knobs",
        rationale: "the binary's usage() prints its leading //! header verbatim, so a match \
                    arm with no header line is an undiscoverable feature and a header line \
                    with no match arm is vaporware; likewise every COAXIAL_* environment \
                    variable read anywhere in the workspace must appear in an env-doc file \
                    (crates/sim/src/env.rs or crates/gateway/src/lib.rs) or operators \
                    cannot find it.",
    },
    LintInfo {
        id: "E05",
        summary: "every CLI arm reaches a distinct library entry point; every experiment is wired",
        rationale: "the binary is a thin dispatcher: a match arm that reaches no library fn is \
                    a subcommand wired to nothing, two arms with identical entry sets mean one \
                    is a silent alias, and a pub experiment fn unreachable from every arm is \
                    an experiment nobody can run from the CLI. Reachability runs over the \
                    resolved call graph, so same-named fns in other modules don't count.",
    },
    LintInfo {
        id: "L01",
        summary: "no heavy simulation work under a gateway lock; consistent lock order",
        rationale: "the gateway serves concurrent connections around Mutex-guarded shared \
                    state: reaching RunSpec::run/parallel_map while a gateway MutexGuard is \
                    live starves every other connection for the length of a simulation, \
                    re-acquiring a held std::sync::Mutex self-deadlocks, and two code paths \
                    acquiring a pair of locks in opposite orders deadlock under load. Guard \
                    liveness is tracked through let-bound guards, drop() calls, and \
                    temporaries on the resolved symbol graph.",
    },
    LintInfo {
        id: "M01",
        summary: "metric paths are unique lowercase-dot-case; every latency component stamps",
        rationale: "the telemetry registry is stringly-keyed: two subsystems registering the \
                    same constant dot-path silently overwrite each other, mixed-case paths \
                    break downstream tooling, and a latency Component variant with no \
                    MissRecord stamp site reports misleading zeros in every breakdown.",
    },
    LintInfo {
        id: "Q01",
        summary: "no mixed-unit arithmetic, assignment, argument, or return",
        rationale: "the unit dataflow layer propagates a Cycles/Nanos/Bytes/Instructions/\
                    Ratio lattice through locals, fields, calls, and returns: adding or \
                    comparing two different known units, or storing one into a slot whose \
                    type (the Cycle alias) or let-binding claims another, is exactly the \
                    class of bug that corrupts every latency figure the reproduction \
                    reports. Unknown only ever hides findings, never invents them.",
    },
    LintInfo {
        id: "Q02",
        summary: "cycles\u{2194}ns conversion only through the blessed time.rs helpers",
        rationale: "a bare `* 2.4`, `/ CPU_FREQ_GHZ`, or hand-rolled `* NS_PER_CYCLE` \
                    outside time.rs re-derives the clock relationship in place; when the \
                    modeled frequency changes, every such site silently keeps the old \
                    clock. Route through cycles_to_ns/ns_to_cycles in the one clock module \
                    (crates/telemetry/src/time.rs, re-exported as coaxial_sim::time), which \
                    exists precisely so the factor lives in one file.",
    },
    LintInfo {
        id: "Q03",
        summary: "pub fields/params with a unit suffix must carry that unit at every write",
        rationale: "a field named `_ns` holding cycles is worse than an unnamed one: every \
                    reader trusts the name. The dataflow layer checks each write site \
                    (field assignment, struct literal, call argument) of every pub \
                    suffix-claimed slot against the abstract unit actually flowing in; \
                    renaming the identifier or converting the value are the two fixes.",
    },
];

pub fn catalog_entry(id: &str) -> Option<&'static LintInfo> {
    CATALOG.iter().find(|l| l.id == id)
}

/// Result of linting a tree: unsuppressed findings plus suppression
/// hygiene problems (stale entries).
pub struct Report {
    pub findings: Vec<Finding>,
    /// Suppressions that matched nothing (stale — must be removed).
    pub stale_suppressions: Vec<allow::AllowEntry>,
    /// Count of findings that were suppressed by lint-allow.toml.
    pub suppressed: usize,
    /// Files scanned.
    pub files: usize,
    /// Wall time per rule ID, sorted by ID. Empty for hand-built reports.
    pub timings: Vec<(&'static str, std::time::Duration)>,
}

impl Report {
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.stale_suppressions.is_empty()
    }

    /// Machine-readable report; strings are escaped by the workspace JSON
    /// codec (`coaxial_telemetry::json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"path\":{},\"line\":{},\"ident\":{},\"message\":{}}}",
                json_str(f.id),
                json_str(&f.path),
                f.line,
                json_str(&f.ident),
                json_str(&f.message)
            ));
        }
        out.push_str("],\"stale_suppressions\":[");
        for (i, s) in self.stale_suppressions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"lint\":{},\"path\":{},\"line\":{}}}",
                json_str(&s.lint),
                json_str(&s.path),
                s.line
            ));
        }
        out.push_str(&format!("],\"suppressed\":{},\"files\":{}", self.suppressed, self.files));
        if !self.timings.is_empty() {
            out.push_str(",\"timings_ms\":{");
            for (i, (id, d)) in self.timings.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}:{:.3}", json_str(id), d.as_secs_f64() * 1e3));
            }
            out.push('}');
        }
        out.push_str(&format!(",\"clean\":{}}}", self.clean()));
        out
    }

    /// SARIF 2.1.0 rendering (format strings like [`Report::to_json`]).
    /// One run, the full rule catalog as
    /// the driver's rule table, one `error`-level result per finding.
    /// `scripts/check.sh` writes this next to the JSON artifact so
    /// code-scanning UIs can ingest the findings; the shape is pinned by
    /// `sarif_report_shape_is_stable`.
    pub fn to_sarif(&self) -> String {
        let mut out = String::from(concat!(
            "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",",
            "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{",
            "\"name\":\"coaxial-lint\",\"rules\":["
        ));
        for (i, l) in CATALOG.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"shortDescription\":{{\"text\":{}}}}}",
                json_str(l.id),
                json_str(l.summary)
            ));
        }
        out.push_str("]}},\"results\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                concat!(
                    "{{\"ruleId\":{},\"level\":\"error\",\"message\":{{\"text\":{}}},",
                    "\"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":{}}},",
                    "\"region\":{{\"startLine\":{}}}}}}}]}}"
                ),
                json_str(f.id),
                json_str(&f.message),
                json_str(&f.path),
                f.line.max(1)
            ));
        }
        out.push_str("]}]}");
        out
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", coaxial_telemetry::json::escape(s))
}

/// Lint the workspace rooted at `root` using the suppression list in
/// `<root>/lint-allow.toml` (if present).
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let allow_path = root.join("lint-allow.toml");
    let allows = if allow_path.exists() {
        let text = std::fs::read_to_string(&allow_path)
            .map_err(|e| format!("{}: {e}", allow_path.display()))?;
        allow::parse(&text).map_err(|e| format!("lint-allow.toml: {e}"))?
    } else {
        Vec::new()
    };

    let sources = workspace_sources(root)?;
    let ctxs: Vec<rules::FileCtx> =
        sources.iter().map(|(rel, src)| rules::FileCtx::new(rel, src)).collect();
    let ws = symbols::Workspace::from_ctxs(&ctxs);

    let mut raw = Vec::new();
    let mut timing_map = rules::Timings::new();
    for ctx in &ctxs {
        raw.extend(rules::lint_file_timed(ctx, &ws, &mut timing_map));
    }
    raw.extend(rules::lint_cross_file_timed(&ws, &ctxs, &mut timing_map));
    raw.extend(rules::timed(&mut timing_map, "E04", || {
        rules::check_e04(&sources, &rules::E04_SPEC)
    }));
    raw.sort_by(|a, b| (&a.path, a.line, a.id).cmp(&(&b.path, b.line, b.id)));

    let mut used = vec![false; allows.len()];
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for f in raw {
        match allows.iter().position(|a| a.matches(&f)) {
            Some(i) => {
                used[i] = true;
                suppressed += 1;
            }
            None => findings.push(f),
        }
    }
    let stale_suppressions =
        allows.into_iter().zip(&used).filter(|(_, &u)| !u).map(|(a, _)| a).collect();
    let timings = timing_map.into_iter().collect();
    Ok(Report { findings, stale_suppressions, suppressed, files: sources.len(), timings })
}

/// Every linted `.rs` file under `root` as `(repo-relative path, source)`
/// pairs, in sorted order. Public so the real-tree fixture tests can
/// build mutated workspaces (e.g. "what if this field lost its reads").
pub fn workspace_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let files = collect_rs_files(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        sources.push((rel, src));
    }
    Ok(sources)
}

/// All `.rs` files under `root` that the lint pass owns: workspace source,
/// tests, benches, and examples — excluding build output, vendored stand-ins,
/// version control, and the lint crate's own test fixtures (which contain
/// deliberate violations).
fn collect_rs_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| e.to_string())?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(name.as_ref(), "target" | "vendor" | ".git" | "fixtures") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}
