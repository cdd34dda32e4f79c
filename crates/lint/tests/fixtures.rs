//! Fixture self-tests: every lint ID must fire on its seeded `_bad.rs`
//! fixture and stay silent on the `_good.rs` twin, so a regression in a
//! rule (or the lexer/parser/symbol graph under it) is caught by
//! `cargo test` rather than by a violation silently sailing through the
//! gate. The cross-file rules additionally get real-tree mutation tests:
//! inject a violation into the actual workspace sources and assert the
//! rule catches exactly it.

use std::collections::BTreeSet;

use coaxial_lint::rules::{self, CoverageSpec, FileCtx, MetricSpec, SweepSpec};
use coaxial_lint::symbols::Workspace;
use coaxial_lint::Finding;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn repo_root() -> String {
    format!("{}/../..", env!("CARGO_MANIFEST_DIR"))
}

/// Run one rule on a fixture, pretending it lives on a model-crate path.
fn run(rule: impl Fn(&FileCtx) -> Vec<Finding>, name: &str) -> Vec<Finding> {
    let src = fixture(name);
    let ctx = FileCtx::new("crates/cache/src/fixture.rs", &src);
    rule(&ctx)
}

fn assert_fires(id: &str, findings: &[Finding], at_least: usize) {
    assert!(
        findings.len() >= at_least && findings.iter().all(|f| f.id == id),
        "expected >= {at_least} {id} findings, got: {findings:#?}"
    );
}

#[test]
fn t02_bad_fires_good_is_clean() {
    // Float storage (`total_latency_cycles: f64`) and float accumulation
    // (`+= latency as f64`).
    assert_fires("T02", &run(rules::check_t02, "t02_bad.rs"), 2);
    // Integer accumulators, a `mean_…_ns` report field, and a one-shot
    // report-boundary conversion are all fine.
    assert_eq!(run(rules::check_t02, "t02_good.rs"), vec![]);
}

#[test]
fn z01_bad_fires_good_is_clean() {
    let sinks: Vec<String> =
        ["on_miss", "on_span", "on_reset"].iter().map(|s| (*s).to_string()).collect();
    let bad = run(|ctx| rules::check_z01(ctx, &sinks), "z01_bad.rs");
    assert_fires("Z01", &bad, 1);
    assert!(bad[0].ident == "on_miss", "the unguarded call is the on_miss: {bad:#?}");
    assert_eq!(run(|ctx| rules::check_z01(ctx, &sinks), "z01_good.rs"), vec![]);
}

/// Run the unit dataflow rules on one fixture file as a tiny workspace.
fn run_units(name: &str) -> coaxial_lint::flow::UnitFindings {
    let src = fixture(name);
    let rel = "crates/cache/src/fixture.rs";
    let ws = Workspace::from_sources(&[(rel, &src)]);
    let ctxs = vec![FileCtx::new(rel, &src)];
    coaxial_lint::flow::check_units(&ctxs, &ws)
}

#[test]
fn q01_bad_fires_good_is_clean() {
    let bad = run_units("q01_bad.rs");
    assert_fires("Q01", &bad.q01, 3);
    let idents: BTreeSet<&str> = bad.q01.iter().map(|f| f.ident.as_str()).collect();
    assert!(idents.contains("deadline_ns"), "cross-unit let resolved: {:#?}", bad.q01);
    let good = run_units("q01_good.rs");
    assert_eq!(good.q01, vec![], "blessed conversions and ratio scaling are clean");
}

#[test]
fn q02_bad_fires_good_is_clean() {
    let bad = run_units("q02_bad.rs");
    assert_fires("Q02", &bad.q02, 2);
    let idents: BTreeSet<&str> = bad.q02.iter().map(|f| f.ident.as_str()).collect();
    assert!(idents.contains("2.4") && idents.contains("NS_PER_CYCLE"), "{:#?}", bad.q02);
    let good = run_units("q02_good.rs");
    assert_eq!(good.q02, vec![], "a non-adjacent 2.4 config value is not a conversion");
}

#[test]
fn q03_bad_fires_good_is_clean() {
    let bad = run_units("q03_bad.rs");
    assert_fires("Q03", &bad.q03, 1);
    assert_eq!(bad.q03[0].ident, "window_ns", "{:#?}", bad.q03);
    let good = run_units("q03_good.rs");
    assert_eq!(good.q03, vec![], "a converted write satisfies the name's claim");
}

/// C01 over a fixture workspace: the struct's fields against one
/// enforcing file.
fn c01_fixture(config: &str) -> Vec<Finding> {
    let spec = [rules::EnforceSpec {
        struct_name: "FixtureTimings",
        config_rel: "crates/dram/src/config.rs",
        enforce_rels: &["crates/dram/src/constraints.rs"],
    }];
    let constraints = fixture("c01/constraints.rs");
    let ws = Workspace::from_sources(&[
        ("crates/dram/src/config.rs", &fixture(config)),
        ("crates/dram/src/constraints.rs", &constraints),
    ]);
    rules::lint_cross_reference(&ws, &spec)
}

#[test]
fn c01_orphaned_timing_parameter_is_caught() {
    let findings = c01_fixture("c01/config_bad.rs");
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].id, "C01");
    assert_eq!(findings[0].ident, "t_orphan");
}

#[test]
fn c01_fully_enforced_config_is_clean() {
    assert_eq!(c01_fixture("c01/config_good.rs"), vec![]);
}

/// C01 findings on the real tree for one config file.
fn c01_real(mutate: Option<Mutation>, config_rel: &str) -> Vec<String> {
    let ws = real_workspace(mutate);
    rules::lint_cross_reference(&ws, rules::C01_PAIRS)
        .into_iter()
        .filter(|f| f.path == config_rel)
        .map(|f| f.ident)
        .collect()
}

/// C01 against the real tree: deliberately orphaning a DRAM timing
/// parameter must be caught. Renaming the identifier in the constraint
/// source is equivalent to the constraint code no longer reading it.
#[test]
fn c01_catches_orphaned_dram_timing_in_real_tree() {
    let config = "crates/dram/src/config.rs";
    let orphan = |src: &str| src.replace("t_faw", "t_faw_unread");
    let idents = c01_real(Some(("crates/dram/src/subchannel.rs", &orphan)), config);
    assert_eq!(idents, ["t_faw"], "only t_faw orphaned");
    // And the untouched tree is fully enforced.
    assert_eq!(c01_real(None, config), Vec::<String>::new());
}

/// C01 against the real CXL tree: orphaning a link-transfer parameter
/// (same rename trick as the DRAM test above) must be caught.
#[test]
fn c01_catches_orphaned_cxl_link_parameter_in_real_tree() {
    let config = "crates/cxl/src/config.rs";
    let orphan = |src: &str| src.replace("port_latency", "port_latency_unread");
    let idents = c01_real(Some(("crates/cxl/src/channel.rs", &orphan)), config);
    assert!(idents.contains(&"port_latency".to_string()), "orphan missed: {idents:?}");
    // The untouched tree flags exactly the report-only `name` tag (the one
    // CxlLinkConfig field the link pipeline legitimately never reads),
    // which lint-allow.toml suppresses with that justification.
    assert_eq!(c01_real(None, config), ["name"], "every transfer-cost field is read");
}

// ---------------------------------------------------------------------------
// E01 / E02 / M01 fixture workspaces
// ---------------------------------------------------------------------------

const E_SPEC: [CoverageSpec<'static>; 1] =
    [CoverageSpec { struct_name: "FixtureCfg", config_rel: "crates/dram/src/config.rs" }];

#[test]
fn e01_unread_knob_is_caught_full_coverage_is_clean() {
    let config = fixture("e01/config.rs");
    let bad = fixture("e01/model_bad.rs");
    let ws = Workspace::from_sources(&[
        ("crates/dram/src/config.rs", &config),
        ("crates/dram/src/model.rs", &bad),
    ]);
    let findings = rules::check_e01(&ws, &E_SPEC);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!((findings[0].id, findings[0].ident.as_str()), ("E01", "unread_knob"));

    let good = fixture("e01/model_good.rs");
    let ws = Workspace::from_sources(&[
        ("crates/dram/src/config.rs", &config),
        ("crates/dram/src/model.rs", &good),
    ]);
    assert_eq!(rules::check_e01(&ws, &E_SPEC), vec![]);
}

#[test]
fn e02_unswept_knobs_are_caught_swept_tree_is_clean() {
    let spec = SweepSpec {
        structs: &[CoverageSpec {
            struct_name: "SweepCfg",
            config_rel: "crates/system/src/config.rs",
        }],
        exercise_files: &["crates/system/src/experiments.rs"],
        layer_files: &["crates/system/src/config.rs"],
    };
    let config = fixture("e02/config.rs");
    let bad = fixture("e02/experiments_bad.rs");
    let ws = Workspace::from_sources(&[
        ("crates/system/src/config.rs", &config),
        ("crates/system/src/experiments.rs", &bad),
    ]);
    let findings = rules::check_e02(&ws, &spec);
    let idents: Vec<&str> = findings.iter().map(|f| f.ident.as_str()).collect();
    // knob_a is swept through its builder; knob_b has only the default
    // ctor as a reachable writer; knob_c's builder is never called.
    assert_eq!(idents, vec!["knob_b", "knob_c"], "{findings:#?}");
    assert!(findings.iter().all(|f| f.id == "E02"));

    let good = fixture("e02/experiments_good.rs");
    let ws = Workspace::from_sources(&[
        ("crates/system/src/config.rs", &config),
        ("crates/system/src/experiments.rs", &good),
    ]);
    assert_eq!(rules::check_e02(&ws, &spec), vec![]);
}

#[test]
fn m01_bad_paths_and_unstamped_variant_are_caught_good_is_clean() {
    let spec = MetricSpec {
        component_enum: "Component",
        enum_rel: "crates/telemetry/src/attribution.rs",
        record_struct: "Rec",
    };
    let telemetry = fixture("m01/telemetry.rs");
    let model_bad = fixture("m01/model_bad.rs");
    let export_bad = fixture("m01/export_bad.rs");
    let ws = Workspace::from_sources(&[
        ("crates/telemetry/src/attribution.rs", &telemetry),
        ("crates/cache/src/model.rs", &model_bad),
        ("crates/cxl/src/export.rs", &export_bad),
    ]);
    let findings = rules::check_m01(&ws, &spec);
    assert!(findings.iter().all(|f| f.id == "M01"));
    let idents: BTreeSet<&str> = findings.iter().map(|f| f.ident.as_str()).collect();
    assert!(idents.contains("Bad.Path"), "mixed-case path flagged: {findings:#?}");
    assert!(idents.contains("dup.path"), "cross-file duplicate flagged: {findings:#?}");
    assert!(idents.contains("BetaGap"), "zero-stamped variant flagged: {findings:#?}");
    assert_eq!(findings.len(), 3, "{findings:#?}");

    let model_good = fixture("m01/model_good.rs");
    let ws = Workspace::from_sources(&[
        ("crates/telemetry/src/attribution.rs", &telemetry),
        ("crates/cache/src/model.rs", &model_good),
    ]);
    assert_eq!(rules::check_m01(&ws, &spec), vec![]);
}

// ---------------------------------------------------------------------------
// E01 / E02 / M01 against the real tree (mutation + clean)
// ---------------------------------------------------------------------------

/// A (relative path, source rewriter) pair for mutation tests.
type Mutation<'a> = (&'a str, &'a dyn Fn(&str) -> String);

/// Load every workspace source, optionally rewrite one file's text and
/// append extra files, and build the workspace over the result.
fn real_tree_with(
    extra: &[(&str, &str)],
    rewrite: Option<Mutation>,
) -> (Vec<(String, String)>, Workspace) {
    let root = repo_root();
    let mut sources =
        coaxial_lint::workspace_sources(std::path::Path::new(&root)).expect("readable tree");
    if let Some((rel, f)) = rewrite {
        let entry = sources
            .iter_mut()
            .find(|(r, _)| r == rel)
            .unwrap_or_else(|| panic!("{rel} not in workspace"));
        entry.1 = f(&entry.1);
    }
    for (rel, src) in extra {
        sources.push(((*rel).to_string(), (*src).to_string()));
    }
    let pairs: Vec<(&str, &str)> = sources.iter().map(|(r, s)| (r.as_str(), s.as_str())).collect();
    let ws = Workspace::from_sources(&pairs);
    (sources, ws)
}

fn real_workspace(mutate: Option<Mutation>) -> Workspace {
    real_tree_with(&[], mutate).1
}

/// Injecting a phantom pub field into DramTimings must be flagged by both
/// E01 (never read) and E02 (never swept); the untouched tree is clean.
#[test]
fn e01_e02_catch_phantom_config_field_in_real_tree() {
    let add_field = |src: &str| {
        src.replace("pub t_faw: Cycle,", "pub t_faw: Cycle,\n    pub t_phantom: Cycle,")
    };
    let ws = real_workspace(Some(("crates/dram/src/config.rs", &add_field)));
    let e01: Vec<String> =
        rules::check_e01(&ws, rules::E01_STRUCTS).into_iter().map(|f| f.ident).collect();
    assert!(e01.contains(&"t_phantom".to_string()), "E01 misses the phantom field: {e01:?}");
    let e02: Vec<String> =
        rules::check_e02(&ws, &rules::E02_SPEC).into_iter().map(|f| f.ident).collect();
    assert!(e02.contains(&"t_phantom".to_string()), "E02 misses the phantom field: {e02:?}");

    let ws = real_workspace(None);
    assert_eq!(rules::check_e01(&ws, rules::E01_STRUCTS), vec![], "real tree E01-clean");
    assert_eq!(rules::check_e02(&ws, &rules::E02_SPEC), vec![], "real tree E02-clean");
}

/// Injecting a phantom latency-component variant must be flagged by M01
/// as having no stamp site; the untouched tree is clean.
#[test]
fn m01_catches_unstamped_component_in_real_tree() {
    let add_variant = |src: &str| src.replace("    Noc,", "    Noc,\n    PhantomStage,");
    let ws = real_workspace(Some(("crates/telemetry/src/attribution.rs", &add_variant)));
    let idents: Vec<String> =
        rules::check_m01(&ws, &rules::M01_SPEC).into_iter().map(|f| f.ident).collect();
    assert!(
        idents.contains(&"PhantomStage".to_string()),
        "M01 misses the unstamped variant: {idents:?}"
    );

    let ws = real_workspace(None);
    assert_eq!(rules::check_m01(&ws, &rules::M01_SPEC), vec![], "real tree M01-clean");
}

/// Run the unit dataflow battery over the real tree, optionally rewriting
/// one file, and return just the (id, path, ident) triples of Q findings.
fn real_tree_units(mutate: Option<Mutation>) -> Vec<(String, String, String)> {
    let (sources, ws) = real_tree_with(&[], mutate);
    let ctxs: Vec<FileCtx> = sources.iter().map(|(rel, src)| FileCtx::new(rel, src)).collect();
    let u = coaxial_lint::flow::check_units(&ctxs, &ws);
    u.q01
        .into_iter()
        .chain(u.q02)
        .chain(u.q03)
        .map(|f| (f.id.to_string(), f.path, f.ident))
        .collect()
}

/// Injecting the canonical mixed-unit statement into a model crate must be
/// flagged by Q01 at the injected site; the untouched tree is clean.
#[test]
fn q01_catches_injected_mixed_addition_in_real_tree() {
    let inject = |src: &str| {
        format!(
            "{src}
pub fn phantom_mix(y_cycles: u64, z_ns: f64) -> f64 {{
                 let x_ns = y_cycles as f64 + z_ns;
    x_ns
}}
"
        )
    };
    let findings = real_tree_units(Some(("crates/dram/src/channel.rs", &inject)));
    assert!(
        findings.iter().any(|(id, path, _)| id == "Q01" && path == "crates/dram/src/channel.rs"),
        "Q01 misses the injected `let x_ns = y_cycles + z_ns`: {findings:#?}"
    );

    assert_eq!(real_tree_units(None), vec![], "real tree must be Q-clean");
}

/// Injecting a bare `* 2.4` conversion into a model crate must be flagged
/// by Q02 at the injected site.
#[test]
fn q02_catches_injected_bare_factor_in_real_tree() {
    let inject = |src: &str| {
        format!(
            "{src}
pub fn phantom_convert(total_cycles: u64) -> f64 {{
                 total_cycles as f64 * 2.4
}}
"
        )
    };
    let findings = real_tree_units(Some(("crates/cache/src/hierarchy.rs", &inject)));
    assert!(
        findings.iter().any(|(id, path, ident)| id == "Q02"
            && path == "crates/cache/src/hierarchy.rs"
            && ident == "2.4"),
        "Q02 misses the injected bare factor: {findings:#?}"
    );
}

/// The full gate on the real tree: no findings, and — mirroring the C01
/// orphan-suppression contract — zero stale suppressions, so no
/// lint-allow.toml entry for the new E/M rules can outlive its reason.
#[test]
fn real_tree_full_scan_is_clean_with_no_orphan_suppressions() {
    let root = repo_root();
    let report = coaxial_lint::lint_workspace(std::path::Path::new(&root)).unwrap();
    assert!(
        report.findings.is_empty(),
        "unsuppressed findings on the real tree: {:#?}",
        report.findings
    );
    assert!(
        report.stale_suppressions.is_empty(),
        "stale (orphaned) suppressions: {:#?}",
        report
            .stale_suppressions
            .iter()
            .map(|s| format!("{} @ {} (line {})", s.lint, s.path, s.line))
            .collect::<Vec<_>>()
    );
}

#[test]
fn json_report_shape_is_stable() {
    let report = coaxial_lint::Report {
        findings: vec![coaxial_lint::Finding {
            id: "E01",
            path: "crates/x/src/lib.rs".to_string(),
            line: 7,
            ident: "knob".to_string(),
            message: "a \"quoted\" message".to_string(),
        }],
        stale_suppressions: vec![],
        suppressed: 2,
        files: 9,
        timings: vec![],
    };
    assert_eq!(
        report.to_json(),
        "{\"findings\":[{\"id\":\"E01\",\"path\":\"crates/x/src/lib.rs\",\"line\":7,\
         \"ident\":\"knob\",\"message\":\"a \\\"quoted\\\" message\"}],\
         \"stale_suppressions\":[],\"suppressed\":2,\"files\":9,\"clean\":false}"
    );
}

/// The SARIF log must be valid-shaped 2.1.0: pinned byte-exactly for the
/// results half (the rule table tracks CATALOG, so only its envelope and
/// one sampled entry are pinned — appending a rule must not break CI).
#[test]
fn sarif_report_shape_is_stable() {
    let report = coaxial_lint::Report {
        findings: vec![coaxial_lint::Finding {
            id: "Q01",
            path: "crates/x/src/lib.rs".to_string(),
            line: 7,
            ident: "window_ns".to_string(),
            message: "a \"quoted\" message".to_string(),
        }],
        stale_suppressions: vec![],
        suppressed: 0,
        files: 1,
        timings: vec![],
    };
    let sarif = report.to_sarif();
    assert!(sarif.starts_with(concat!(
        "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",",
        "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{",
        "\"name\":\"coaxial-lint\",\"rules\":["
    )));
    assert!(sarif.ends_with(concat!(
        "\"results\":[{\"ruleId\":\"Q01\",\"level\":\"error\",",
        "\"message\":{\"text\":\"a \\\"quoted\\\" message\"},",
        "\"locations\":[{\"physicalLocation\":{\"artifactLocation\":",
        "{\"uri\":\"crates/x/src/lib.rs\"},\"region\":{\"startLine\":7}}}]}]}]}"
    )));
    // Every catalog rule appears exactly once in the driver rule table.
    for l in coaxial_lint::CATALOG {
        assert_eq!(
            sarif.matches(&format!("{{\"id\":\"{}\",", l.id)).count(),
            1,
            "rule {} missing or duplicated in the SARIF rule table",
            l.id
        );
    }
}

#[test]
fn malformed_allow_entry_missing_reason_is_rejected() {
    let bad = r#"
[[allow]]
lint = "E01"
path = "crates/sim/src/lru.rs"
"#;
    let err = coaxial_lint::allow::parse(bad).unwrap_err();
    assert!(err.contains("reason"), "{err}");
}

#[test]
fn workspace_lint_allow_file_parses_and_every_entry_has_a_reason() {
    let root = repo_root();
    let text = std::fs::read_to_string(format!("{root}/lint-allow.toml")).unwrap();
    let entries = coaxial_lint::allow::parse(&text).expect("checked-in lint-allow.toml is valid");
    for e in &entries {
        assert!(e.reason.trim().len() >= 10, "entry at line {} lacks a real reason", e.line);
    }
}

#[test]
fn e04_bad_fires_good_is_clean() {
    let spec = rules::CliSpec {
        bin_rel: "src/bin/fixtool.rs",
        env_prefix: "FIXTURE_",
        env_exclude: &["FIXTURE_TMP"],
        env_doc_rels: &["src/env.rs"],
    };
    let doc = fixture("e04/env_doc.rs");
    let bad = fixture("e04/bad_bin.rs");
    let sources =
        vec![("src/bin/fixtool.rs".to_string(), bad), ("src/env.rs".to_string(), doc.clone())];
    let findings = rules::check_e04(&sources, &spec);
    assert_fires("E04", &findings, 4);
    let idents: BTreeSet<&str> = findings.iter().map(|f| f.ident.as_str()).collect();
    for want in ["--ghost", "prune", "--level", "FIXTURE_SECRET"] {
        assert!(idents.contains(want), "missing {want}: {findings:#?}");
    }

    let good = fixture("e04/good_bin.rs");
    let sources = vec![("src/bin/fixtool.rs".to_string(), good), ("src/env.rs".to_string(), doc)];
    assert_eq!(rules::check_e04(&sources, &spec), vec![]);
}

#[test]
fn e04_real_tree_is_clean_and_catches_mutations() {
    let sources =
        coaxial_lint::workspace_sources(std::path::Path::new(&repo_root())).expect("readable tree");
    assert_eq!(rules::check_e04(&sources, &rules::E04_SPEC), vec![]);

    // Strip the `--json` usage-header line: the parse arm is still there,
    // so the option became undiscoverable — forward E04.
    let mut mutated = sources.clone();
    let bin = mutated.iter_mut().find(|(rel, _)| rel == "src/bin/coaxial.rs").unwrap();
    bin.1 = bin
        .1
        .lines()
        .filter(|l| !(l.starts_with("//!") && l.contains("--json")))
        .collect::<Vec<_>>()
        .join("\n");
    let findings = rules::check_e04(&mutated, &rules::E04_SPEC);
    assert!(
        findings.iter().any(|f| f.id == "E04" && f.ident == "--json"),
        "expected a forward finding for --json: {findings:#?}"
    );

    // An env knob read somewhere but documented nowhere — env E04. The
    // name is assembled at runtime so this test file itself (which the
    // full-tree scan covers) doesn't contain the undocumented literal.
    let knob = format!("{}{}", "COAXIAL_", "BOGUS_KNOB");
    let mut mutated = sources.clone();
    mutated.push((
        "crates/sim/src/fake.rs".to_string(),
        format!("fn f() -> Option<String> {{ std::env::var(\"{knob}\").ok() }}"),
    ));
    let findings = rules::check_e04(&mutated, &rules::E04_SPEC);
    assert!(
        findings.iter().any(|f| f.ident == knob),
        "expected an env-knob finding: {findings:#?}"
    );
}

// ---------------------------------------------------------------------------
// Resolver-era tests: L01/E05 self-tests and cross-link precision.
// ---------------------------------------------------------------------------

/// L01 self-test on a synthetic gateway crate: heavy work reachable under
/// a live guard, interprocedural re-acquisition, intra-body
/// double-acquire, and an acquisition-order cycle all fire; the
/// collect-then-drop twin is clean.
#[test]
fn l01_lock_discipline_fires_on_fixture_and_good_twin_is_clean() {
    let spec = rules::LockSpec {
        guard_prefix: "coaxial_gw::",
        forbidden_fqs: &["coaxial_gw::heavy::run_sim"],
    };
    let heavy = "pub fn run_sim(n: u64) -> u64 { n * 2 }\n";
    let bad_state = r#"
use std::sync::Mutex;
pub struct Inner { pub jobs: u64 }
pub static STATE: Mutex<Inner> = Mutex::new(Inner { jobs: 0 });
pub static AUX: Mutex<u64> = Mutex::new(0);

pub fn heavy_under_lock(n: u64) -> u64 {
    let g = STATE.lock().unwrap();
    crate::heavy::run_sim(g.jobs + n)
}

fn relocks() -> u64 {
    let g = STATE.lock().unwrap();
    g.jobs
}

pub fn reacquires_via_callee() -> u64 {
    let g = STATE.lock().unwrap();
    relocks() + g.jobs
}

pub fn double_acquire() -> u64 {
    let a = STATE.lock().unwrap();
    let b = STATE.lock().unwrap();
    a.jobs + b.jobs
}

pub fn order_ab() -> u64 {
    let a = STATE.lock().unwrap();
    let b = AUX.lock().unwrap();
    a.jobs + *b
}

pub fn order_ba() -> u64 {
    let b = AUX.lock().unwrap();
    let a = STATE.lock().unwrap();
    a.jobs + *b
}
"#;
    let good_state = r#"
use std::sync::Mutex;
pub struct Inner { pub jobs: u64 }
pub static STATE: Mutex<Inner> = Mutex::new(Inner { jobs: 0 });
pub static AUX: Mutex<u64> = Mutex::new(0);

pub fn collect_then_run(n: u64) -> u64 {
    let jobs = {
        let g = STATE.lock().unwrap();
        g.jobs
    };
    crate::heavy::run_sim(jobs + n)
}

pub fn order_ab() -> u64 {
    let a = STATE.lock().unwrap();
    let b = AUX.lock().unwrap();
    a.jobs + *b
}

pub fn order_ab_again() -> u64 {
    let a = STATE.lock().unwrap();
    let b = AUX.lock().unwrap();
    a.jobs + *b
}
"#;
    let lib = "pub mod heavy;\npub mod state;\n";
    let ws = Workspace::from_sources(&[
        ("crates/gw/src/lib.rs", lib),
        ("crates/gw/src/heavy.rs", heavy),
        ("crates/gw/src/state.rs", bad_state),
    ]);
    let findings = rules::check_l01(&ws, &spec);
    let has = |frag: &str, ident: &str| {
        findings.iter().any(|f| f.ident == ident && f.message.contains(frag))
    };
    assert!(has("holds gateway lock", "heavy_under_lock"), "{findings:#?}");
    assert!(has("re-acquires", "reacquires_via_callee"), "{findings:#?}");
    assert!(has("already holding", "double_acquire"), "{findings:#?}");
    assert!(
        has("opposite order", "order_ab") || has("opposite order", "order_ba"),
        "{findings:#?}"
    );

    let ws = Workspace::from_sources(&[
        ("crates/gw/src/lib.rs", lib),
        ("crates/gw/src/heavy.rs", heavy),
        ("crates/gw/src/state.rs", good_state),
    ]);
    assert_eq!(rules::check_l01(&ws, &spec), vec![], "collect-then-drop twin must be clean");
}

/// E05 self-test on a synthetic binary: an arm wired to nothing, a
/// silent-alias arm pair, and an orphaned pub experiment all fire; the
/// fully wired twin is clean.
#[test]
fn e05_cli_reachability_fires_on_fixture_and_good_twin_is_clean() {
    let spec = rules::CliReachSpec {
        bin_rel: "src/bin/fixtool.rs",
        experiments_rel: "crates/fixlib/src/exp.rs",
    };
    let exp = r#"
pub fn alpha(n: u64) -> u64 { n + 1 }
pub fn beta() -> u64 { alpha(41) }
pub fn orphan() -> u64 { 7 }
"#;
    let bad_bin = r#"
use fixlib::exp::{alpha, beta};
fn main() {
    let a: Vec<String> = std::env::args().collect();
    match a[1].as_str() {
        "alpha" => { alpha(1); }
        "beta" | "b" => { beta(); }
        "dup" => { beta(); }
        "nothing" => { let x = 1 + 2; let _ = x; }
        _ => {}
    }
}
"#;
    let good_bin = r#"
use fixlib::exp::{alpha, beta, orphan};
fn main() {
    let a: Vec<String> = std::env::args().collect();
    match a[1].as_str() {
        "alpha" => { alpha(1); }
        "beta" | "b" => { beta(); }
        "orphan" => { orphan(); }
        _ => {}
    }
}
"#;
    let lib = "pub mod exp;\n";
    let run = |bin: &str| {
        let sources = [
            ("crates/fixlib/src/lib.rs", lib),
            ("crates/fixlib/src/exp.rs", exp),
            ("src/bin/fixtool.rs", bin),
        ];
        let ctxs: Vec<FileCtx> = sources.iter().map(|(rel, src)| FileCtx::new(rel, src)).collect();
        let ws = Workspace::from_sources(&sources);
        rules::check_e05(&ws, &ctxs, &spec)
    };
    let findings = run(bad_bin);
    let idents: BTreeSet<&str> = findings.iter().map(|f| f.ident.as_str()).collect();
    for want in ["nothing", "dup", "orphan"] {
        assert!(idents.contains(want), "missing E05 {want}: {findings:#?}");
    }
    assert!(findings.iter().all(|f| f.id == "E05"), "{findings:#?}");

    assert_eq!(run(good_bin), vec![], "fully wired twin must be clean");
}

/// A same-named `DramTimings` in a different crate whose own field is
/// read must NOT credit the real `DramTimings` field: E01 keeps flagging
/// the injected phantom.
#[test]
fn e01_does_not_cross_link_same_named_structs() {
    let decoy = "pub struct DramTimings { pub t_phantom: u64 }\n\
                 pub fn poke(t: &DramTimings) -> u64 { t.t_phantom }\n";
    let add_field = |src: &str| {
        src.replace("pub t_faw: Cycle,", "pub t_faw: Cycle,\n    pub t_phantom: Cycle,")
    };
    let (_, ws) = real_tree_with(
        &[("crates/workloads/src/decoy_timings.rs", decoy)],
        Some(("crates/dram/src/config.rs", &add_field)),
    );
    let idents: Vec<String> =
        rules::check_e01(&ws, rules::E01_STRUCTS).into_iter().map(|f| f.ident).collect();
    assert!(
        idents.contains(&"t_phantom".to_string()),
        "a decoy-crate read credited the real field"
    );
}

/// A different crate's own `TelemetrySink` trait (different methods) must
/// shadow the telemetry crate's for files in that module: a same-named
/// inherent method `.on_miss()` there is not a sink call.
#[test]
fn z01_does_not_cross_link_same_named_traits() {
    let decoy = "pub trait TelemetrySink { fn frobnicate(&mut self); }\n\
                 pub struct Probe;\n\
                 impl Probe { pub fn on_miss(&mut self) {} }\n\
                 pub fn poke(p: &mut Probe) { p.on_miss(); }\n";
    let rel = "crates/workloads/src/decoy_sink.rs";
    let (_, ws) = real_tree_with(&[(rel, decoy)], None);
    let sinks = ws.trait_methods_for(rel, "TelemetrySink").expect("the local trait resolves");
    let ctx = FileCtx::new(rel, decoy);
    assert_eq!(
        rules::check_z01(&ctx, &sinks),
        vec![],
        "the local trait (no on_miss) must shadow the telemetry crate's"
    );
}
