//! The lint rules. See [`crate::CATALOG`] for the contract each encodes.
//!
//! Per-file rules are pure functions over a parsed file ([`FileCtx`]): T02
//! reads its tokens, Z01 its fn-body trees. Cross-file rules
//! (C01/E01–E05/M01/L01/Q01–Q03) run over the workspace symbol graph
//! ([`Workspace`]) and the same trees. Both layers are driven
//! directly by the fixture tests in `tests/fixtures.rs` on seeded good/bad
//! sources, with rule *specs* (which structs, which files) passed as
//! parameters so the fixtures can substitute tiny synthetic workspaces
//! for the real tree.

use std::collections::{BTreeMap, BTreeSet};

use crate::body::{self, Block, Expr};
use crate::lexer::{Tok, TokKind};
use crate::parser::{self, FnDef, Item, ItemKind};
use crate::symbols::{FnSym, MetricReg, Workspace};
use crate::Finding;

/// Crates whose `src/` trees hold simulated state and timing arithmetic.
const MODEL_CRATES: &[&str] = &["cpu", "cache", "dram", "cxl", "system", "workloads"];

/// Snake-case segments that mark an identifier as cycle/latency-carrying.
const TIMING_SEGMENTS: &[&str] = &[
    "cycle",
    "cycles",
    "cyc",
    "latency",
    "latencies",
    "lat",
    "tick",
    "ticks",
    "deadline",
    "timestamp",
    "time",
    "at",
    "now",
    "due",
    "until",
    "when",
    "cl",
    "cwl",
];

/// A lexed and parsed file, shared by every rule.
pub struct FileCtx<'a> {
    pub rel: &'a str,
    pub src: &'a str,
    /// Comment-stripped tokens — the index space of `items` body spans.
    pub code: Vec<Tok>,
    /// Parsed item tree (see [`crate::parser`]).
    pub items: Vec<Item>,
    /// Every fn body's tree (see [`crate::body`]), keyed by the token
    /// index of its `{`: the only parse of each body.
    pub bodies: BTreeMap<usize, Block>,
}

impl<'a> FileCtx<'a> {
    pub fn new(rel: &'a str, src: &'a str) -> Self {
        fn collect(items: &[Item], code: &[Tok], out: &mut BTreeMap<usize, Block>) {
            for it in items {
                match &it.kind {
                    ItemKind::Fn(FnDef { body: Some((open, close)), .. }) => {
                        out.insert(*open, body::parse_body(code, *open, *close));
                    }
                    ItemKind::Impl { items, .. }
                    | ItemKind::Trait { items }
                    | ItemKind::Mod { items, .. } => collect(items, code, out),
                    _ => {}
                }
            }
        }
        let code = parser::code_toks(src);
        let items = parser::parse_items(&code);
        let mut bodies = BTreeMap::new();
        collect(&items, &code, &mut bodies);
        Self { rel, src, code, items, bodies }
    }

    fn finding(&self, id: &'static str, line: u32, ident: &str, message: String) -> Finding {
        Finding { id, path: self.rel.to_string(), line, ident: ident.to_string(), message }
    }
}

pub fn in_model_src(rel: &str) -> bool {
    MODEL_CRATES.iter().any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

fn in_timing_scope(rel: &str) -> bool {
    in_model_src(rel) || rel.starts_with("crates/sim/src/")
}

/// The stats/report layer is allowed to use floats: means, ratios, and
/// bandwidth figures are reporting artifacts, not simulated time.
fn in_stats_layer(rel: &str) -> bool {
    rel.ends_with("stats.rs") || rel.ends_with("power.rs") || rel.contains("report")
}

/// `true` for identifiers that plausibly carry cycle/latency values.
fn is_timing_ident(ident: &str) -> bool {
    if ident.starts_with("t_") && ident.len() > 2 {
        return true;
    }
    ident.split('_').any(|seg| TIMING_SEGMENTS.contains(&seg.to_ascii_lowercase().as_str()))
}

/// Wall time per rule ID.
pub type Timings = BTreeMap<&'static str, std::time::Duration>;

/// Run one rule, adding its wall time to `timings[id]`.
pub fn timed(
    timings: &mut Timings,
    id: &'static str,
    f: impl FnOnce() -> Vec<Finding>,
) -> Vec<Finding> {
    let t0 = std::time::Instant::now();
    let fs = f();
    *timings.entry(id).or_default() += t0.elapsed();
    fs
}

/// Per-file rules (T02, Z01), timed. The workspace graph supplies the real
/// sink trait's method set (Z01).
pub fn lint_file_timed(ctx: &FileCtx, ws: &Workspace, timings: &mut Timings) -> Vec<Finding> {
    let mut out = Vec::new();
    if in_timing_scope(ctx.rel) && !in_stats_layer(ctx.rel) {
        out.extend(timed(timings, "T02", || check_t02(ctx)));
    }
    if in_model_src(ctx.rel) && ctx.src.contains("TelemetrySink") {
        let sinks = ws
            .trait_methods_for(ctx.rel, "TelemetrySink")
            .unwrap_or_else(|| SINK_METHODS.iter().map(|s| (*s).to_string()).collect());
        out.extend(timed(timings, "Z01", || check_z01(ctx, &sinks)));
    }
    out
}

/// Cross-file rules with the real-tree specs, timed.
pub fn lint_cross_file_timed(
    ws: &Workspace,
    ctxs: &[FileCtx],
    timings: &mut Timings,
) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(timed(timings, "C01", || lint_cross_reference(ws, C01_PAIRS)));
    out.extend(timed(timings, "E01", || check_e01(ws, E01_STRUCTS)));
    out.extend(timed(timings, "E02", || check_e02(ws, &E02_SPEC)));
    out.extend(timed(timings, "E03", || check_e03(ws, &E03_SPEC)));
    out.extend(timed(timings, "M01", || check_m01(ws, &M01_SPEC)));
    out.extend(timed(timings, "L01", || check_l01(ws, &L01_SPEC)));
    out.extend(timed(timings, "E05", || check_e05(ws, ctxs, &E05_SPEC)));
    // The unit dataflow (Q01/Q02/Q03) runs once; the shared analysis is
    // billed to Q01, the split-out findings to their own IDs.
    let mut units = crate::flow::UnitFindings::default();
    out.extend(timed(timings, "Q01", || {
        units = crate::flow::check_units(ctxs, ws);
        std::mem::take(&mut units.q01)
    }));
    out.extend(timed(timings, "Q02", || std::mem::take(&mut units.q02)));
    out.extend(timed(timings, "Q03", || std::mem::take(&mut units.q03)));
    out
}

// ---------------------------------------------------------------------------
// T02 — floating-point cycle math
// ---------------------------------------------------------------------------

/// Idents reachable walking left from position `i` (exclusive) through a
/// postfix chain: `self.cfg.timings.t_faw`, `queue.head().deadline()`, …
fn chain_idents(code: &[Tok], i: usize) -> Vec<&str> {
    let mut idents = Vec::new();
    let mut j = i;
    let mut parens = 0usize;
    let floor = i.saturating_sub(16);
    while j > floor {
        let t = &code[j - 1];
        match () {
            _ if t.is_punct(')') => parens += 1,
            _ if t.is_punct('(') => {
                if parens == 0 {
                    break;
                }
                parens -= 1;
            }
            _ if parens > 0 => {} // skip call arguments
            _ if t.kind == TokKind::Ident => idents.push(t.text.as_str()),
            _ if t.is_punct('.') || t.is_punct(':') => {}
            _ => break,
        }
        j -= 1;
    }
    idents
}

/// Segments marking an identifier as a *raw* cycle/tick quantity (for
/// T02's float-storage check — narrower than [`is_timing_ident`]).
const CYCLE_SEGMENTS: &[&str] =
    &["cycle", "cycles", "cyc", "tick", "ticks", "latency", "lat", "deadline"];

/// Segments that mark a float as a legitimate *derived* report quantity
/// (a mean, a rate, or a wall-time unit) rather than simulated time.
const REPORT_MARKERS: &[&str] =
    &["mean", "avg", "ns", "us", "ms", "ratio", "rate", "per", "frac", "pct", "mhz", "ghz"];

fn is_cycle_storage_ident(ident: &str) -> bool {
    let segs: Vec<String> = ident.split('_').map(|s| s.to_ascii_lowercase()).collect();
    segs.iter().any(|s| CYCLE_SEGMENTS.contains(&s.as_str()))
        && !segs.iter().any(|s| REPORT_MARKERS.contains(&s.as_str()))
}

pub fn check_t02(ctx: &FileCtx) -> Vec<Finding> {
    let code = &ctx.code;
    let mut out = Vec::new();
    // Accumulating casts: `acc += cycles as f64`. A one-shot conversion at
    // a reporting boundary (`sum as f64 / n as f64`) is legitimate; what
    // T02 forbids is *accumulation* of simulated time in floating point,
    // where the running sum loses exactness and order-independence.
    let mut stmt_start = 0usize;
    for i in 0..code.len() {
        let t = &code[i];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            stmt_start = i + 1;
            continue;
        }
        if !t.is_ident("as")
            || !code.get(i + 1).is_some_and(|n| n.is_ident("f64") || n.is_ident("f32"))
        {
            continue;
        }
        let accumulating = code[stmt_start..i]
            .windows(2)
            .any(|w| (w[0].is_punct('+') || w[0].is_punct('-')) && w[1].is_punct('='));
        if !accumulating {
            continue;
        }
        if let Some(src) = chain_idents(code, i).iter().find(|id| is_timing_ident(id)) {
            out.push(ctx.finding(
                "T02",
                t.line,
                src,
                format!(
                    "`{src} as {}` accumulates cycle math in floating point outside the \
                     stats/report layer; the latency-ledger conservation proof only holds \
                     in exact integers — accumulate in u64, convert at the report boundary",
                    code[i + 1].text
                ),
            ));
        }
    }
    // `latency_cycles: f64` — float *storage* of a raw cycle quantity.
    // Derived report quantities (`mean_queue_cycles`, `latency_ns`,
    // `bytes_per_cycle`) are exempt via REPORT_MARKERS.
    for i in 0..code.len().saturating_sub(2) {
        if code[i].kind == TokKind::Ident
            && is_cycle_storage_ident(&code[i].text)
            && code[i + 1].is_punct(':')
            && !code[i + 2].is_punct(':')
            && (code[i + 2].is_ident("f64") || code[i + 2].is_ident("f32"))
        {
            out.push(ctx.finding(
                "T02",
                code[i].line,
                &code[i].text,
                format!(
                    "`{}: {}` stores a raw cycle/latency quantity in floating point outside \
                     the stats/report layer; keep simulated time in integer cycles (derived \
                     report values should say so in their name: _mean/_ns/_per/…)",
                    code[i].text,
                    code[i + 2].text
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Z01 — telemetry guard domination
// ---------------------------------------------------------------------------

/// Fallback sink hook names, used only when the workspace does not define
/// a `TelemetrySink` trait to read the real method set from (fixtures).
const SINK_METHODS: &[&str] = &["on_miss", "on_span", "on_reset"];

pub fn check_z01(ctx: &FileCtx, sink_methods: &[String]) -> Vec<Finding> {
    let sink = |e: &Expr| match e {
        Expr::Call { recv: Some(_), name, pos, line, .. } if sink_methods.contains(name) => {
            Some((*pos, (*line, name.clone())))
        }
        _ => None,
    };
    let reads_enabled = |e: &Expr| {
        let mut hit = false;
        e.walk(&mut |x| {
            hit |=
                matches!(x, Expr::Path { segs, .. } if segs.last().is_some_and(|s| s == "ENABLED"));
        });
        hit
    };
    // Every sink call, less those in the then-block of an `if …ENABLED…`
    // or the body of a match arm whose guard reads ENABLED.
    let (mut sinks, mut guarded) = (BTreeMap::new(), Vec::new());
    for b in ctx.bodies.values() {
        b.walk(&mut |e| {
            let mut mark = |s: &Expr| guarded.extend(sink(s).map(|(pos, _)| pos));
            match e {
                Expr::If { cond, then_b, .. } if reads_enabled(cond) => then_b.walk(&mut mark),
                Expr::Match { arms, .. } => arms
                    .iter()
                    .filter(|a| a.guard.as_ref().is_some_and(reads_enabled))
                    .for_each(|a| a.body.walk(&mut mark)),
                _ => {}
            }
            sinks.extend(sink(e));
        });
    }
    for pos in guarded {
        sinks.remove(&pos);
    }
    let msg = |name: &str| {
        format!(
            "telemetry sink call `.{name}(…)` is not dominated by an `if T::ENABLED` guard; \
             the NullTelemetry monomorphization would pay for it"
        )
    };
    sinks.into_values().map(|(line, name)| ctx.finding("Z01", line, &name, msg(&name))).collect()
}

// ---------------------------------------------------------------------------
// C01 — declared-but-unenforced fidelity parameters (DDR5 timings, CXL link)
// ---------------------------------------------------------------------------

/// C01 rule spec: a fidelity-critical config struct and the files whose
/// code must read every one of its fields.
pub struct EnforceSpec<'a> {
    pub struct_name: &'a str,
    pub config_rel: &'a str,
    pub enforce_rels: &'a [&'a str],
}

/// The real tree's C01 pairs: DDR5 timings against the bank/subchannel/
/// channel schedulers, CXL link costs against the link pipeline.
pub const C01_PAIRS: &[EnforceSpec<'static>] = &[
    EnforceSpec {
        struct_name: "DramTimings",
        config_rel: "crates/dram/src/config.rs",
        enforce_rels: &[
            "crates/dram/src/bank.rs",
            "crates/dram/src/subchannel.rs",
            "crates/dram/src/channel.rs",
        ],
    },
    EnforceSpec {
        struct_name: "CxlLinkConfig",
        config_rel: "crates/cxl/src/config.rs",
        enforce_rels: &["crates/cxl/src/channel.rs", "crates/cxl/src/memory.rs"],
    },
];

/// C01: every field of each spec struct must appear as an identifier in at
/// least one of its enforcing files.
pub fn lint_cross_reference(ws: &Workspace, specs: &[EnforceSpec]) -> Vec<Finding> {
    let mut out = Vec::new();
    for spec in specs {
        let Some(def) = ws.struct_def(spec.config_rel, spec.struct_name) else { continue };
        let used: BTreeSet<&str> = spec
            .enforce_rels
            .iter()
            .filter_map(|rel| ws.files.get(*rel))
            .flat_map(|syms| syms.idents.iter().map(String::as_str))
            .collect();
        let label: Vec<&str> =
            spec.enforce_rels.iter().map(|r| r.rsplit('/').next().unwrap_or(r)).collect();
        for f in def.fields.iter().filter(|f| !used.contains(f.name.as_str())) {
            out.push(Finding {
                id: "C01",
                path: spec.config_rel.to_string(),
                line: f.line,
                ident: f.name.clone(),
                message: format!(
                    "fidelity parameter `{}.{}` is declared but never read by the enforcing \
                     code ({}) — a declared-but-unenforced parameter is a silent fidelity bug",
                    spec.struct_name,
                    f.name,
                    label.join(", ")
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// E01 — every pub config field is read by model code
// ---------------------------------------------------------------------------

/// One fidelity-critical config struct and the file defining it.
pub struct CoverageSpec<'a> {
    pub struct_name: &'a str,
    pub config_rel: &'a str,
}

/// The real tree's E01 struct set.
pub const E01_STRUCTS: &[CoverageSpec<'static>] = &[
    CoverageSpec { struct_name: "DramTimings", config_rel: "crates/dram/src/config.rs" },
    CoverageSpec { struct_name: "DramConfig", config_rel: "crates/dram/src/config.rs" },
    CoverageSpec { struct_name: "CxlLinkConfig", config_rel: "crates/cxl/src/config.rs" },
    CoverageSpec { struct_name: "SystemConfig", config_rel: "crates/system/src/config.rs" },
    CoverageSpec { struct_name: "FunctionalConfig", config_rel: "crates/system/src/config.rs" },
    CoverageSpec { struct_name: "TimingConfig", config_rel: "crates/system/src/config.rs" },
];

/// E01: every `pub` field of each spec struct has at least one field-read
/// site in non-test model code. A typed read only credits its own
/// struct; unresolved reads fall back to name matching
/// (see `crate::symbols` docs).
pub fn check_e01(ws: &Workspace, specs: &[CoverageSpec]) -> Vec<Finding> {
    let mut model_fns: Vec<&FnSym> = Vec::new();
    for (rel, syms) in &ws.files {
        if !in_model_src(rel) {
            continue;
        }
        model_fns.extend(syms.fns.iter().filter(|f| !f.in_test));
    }
    let mut out = Vec::new();
    for spec in specs {
        let Some(def) = ws.struct_def(spec.config_rel, spec.struct_name) else { continue };
        let fq = ws.struct_fq(spec.config_rel, spec.struct_name);
        for field in def.fields.iter().filter(|f| f.is_pub) {
            if !model_fns.iter().any(|f| ws.reads_field(f, fq.as_deref(), &field.name)) {
                out.push(Finding {
                    id: "E01",
                    path: spec.config_rel.to_string(),
                    line: field.line,
                    ident: field.name.clone(),
                    message: format!(
                        "pub config field `{}.{}` is never read by model code — a fidelity \
                         knob nothing reads silently claims a fidelity the simulator does \
                         not deliver; wire it into the model or delete it",
                        spec.struct_name, field.name
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// E02 — every pub config field is exercised by a sweep or env override
// ---------------------------------------------------------------------------

/// E02 rule spec: which structs must be swept, which files host the
/// experiment/env entry points, and which config-layer files the
/// reachability walk may traverse between them.
pub struct SweepSpec<'a> {
    pub structs: &'a [CoverageSpec<'a>],
    /// Entry points: every non-test fn here is a sweep/override root.
    pub exercise_files: &'a [&'a str],
    /// Builder/ctor layer the walk may pass through (config files).
    pub layer_files: &'a [&'a str],
}

/// The real tree's E02 spec (the structs the ISSUE/ROADMAP name).
pub const E02_SPEC: SweepSpec<'static> = SweepSpec {
    structs: &[
        CoverageSpec { struct_name: "DramTimings", config_rel: "crates/dram/src/config.rs" },
        CoverageSpec { struct_name: "CxlLinkConfig", config_rel: "crates/cxl/src/config.rs" },
        CoverageSpec { struct_name: "SystemConfig", config_rel: "crates/system/src/config.rs" },
        CoverageSpec { struct_name: "FunctionalConfig", config_rel: "crates/system/src/config.rs" },
        CoverageSpec { struct_name: "TimingConfig", config_rel: "crates/system/src/config.rs" },
    ],
    exercise_files: &["crates/system/src/experiments.rs", "crates/sim/src/env.rs"],
    layer_files: &[
        "crates/system/src/config.rs",
        "crates/dram/src/config.rs",
        "crates/cxl/src/config.rs",
    ],
};

/// Call-graph view over a subset of the workspace's non-test fns.
///
/// Edges are fq-exact for resolved call sites and name-matched for
/// unresolved ones.
struct CallGraph<'w> {
    nodes: Vec<(&'w str, &'w FnSym)>,
    by_fq: std::collections::BTreeMap<&'w str, Vec<usize>>,
    by_name: std::collections::BTreeMap<&'w str, Vec<usize>>,
    /// When set, name-fallback edges stay within the caller's crate (fq
    /// edges still cross crates freely). Rules whose findings come from
    /// *reachability* (L01) use this: a workspace-global name match on
    /// `new`/`get`/`insert` would connect nearly everything to nearly
    /// everything, and cross-crate calls go through imports the resolver
    /// does handle. Coverage-credit rules (E02/E03) keep global name
    /// edges so imprecision can only hide findings, never invent them.
    crate_scoped_names: bool,
}

/// The crate a repo-relative path belongs to, for name-edge scoping.
fn crate_of(rel: &str) -> &str {
    let mut it = rel.split('/');
    match (it.next(), it.next()) {
        (Some("crates"), Some(c)) => c,
        _ => "#root",
    }
}

impl<'w> CallGraph<'w> {
    fn build(ws: &'w Workspace, keep: impl Fn(&str) -> bool) -> Self {
        let mut g = Self {
            nodes: Vec::new(),
            by_fq: Default::default(),
            by_name: Default::default(),
            crate_scoped_names: false,
        };
        for (rel, syms) in &ws.files {
            if !keep(rel) {
                continue;
            }
            for f in syms.fns.iter().filter(|f| !f.in_test) {
                let i = g.nodes.len();
                g.nodes.push((rel.as_str(), f));
                g.by_fq.entry(f.fq.as_str()).or_default().push(i);
                g.by_name.entry(f.name.as_str()).or_default().push(i);
            }
        }
        g
    }

    fn with_crate_scoped_names(mut self) -> Self {
        self.crate_scoped_names = true;
        self
    }

    fn name_targets(&self, from_rel: &str, name: &str) -> Vec<usize> {
        let mut out: Vec<usize> = self.by_name.get(name).into_iter().flatten().copied().collect();
        if self.crate_scoped_names {
            out.retain(|&i| crate_of(self.nodes[i].0) == crate_of(from_rel));
        }
        out
    }

    /// Successor nodes of node `i`, optionally skipping callee names
    /// (E03's ctor stop-set).
    fn succs(&self, i: usize, skip: impl Fn(&str) -> bool) -> Vec<usize> {
        let (rel, f) = self.nodes[i];
        let mut out = Vec::new();
        for fq in &f.calls_fq {
            let name = fq.rsplit("::").next().unwrap_or(fq);
            if skip(name) {
                continue;
            }
            out.extend(self.by_fq.get(fq.as_str()).into_iter().flatten().copied());
        }
        for name in &f.calls_unresolved {
            if skip(name) {
                continue;
            }
            out.extend(self.name_targets(rel, name));
        }
        out
    }

    /// Nodes a single call site in `from_rel` can dispatch to.
    fn site_targets(&self, from_rel: &str, site: &crate::symbols::CallSite) -> Vec<usize> {
        if let Some(fq) = &site.fq {
            return self.by_fq.get(fq.as_str()).into_iter().flatten().copied().collect();
        }
        if site.resolved {
            return Vec::new(); // std/guard plumbing — accounted, no edge
        }
        self.name_targets(from_rel, &site.name)
    }

    /// Transitive closure from `seeds` (indices), following `succs`.
    fn reach(&self, seeds: Vec<usize>, skip: impl Fn(&str) -> bool) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut queue = seeds;
        while let Some(i) = queue.pop() {
            if !seen.insert(i) {
                continue;
            }
            queue.extend(self.succs(i, &skip));
        }
        seen
    }
}

/// E02: a field counts as *exercised* when some config-layer fn reachable
/// from the experiment/env entry points writes it, and the write either
/// derives from a fn parameter (a builder the sweep actually varies) or
/// the field is written by two distinct reachable constructors (a
/// variant-pair sweep like `x8_symmetric` vs. `x8_asymmetric`). A single
/// default constructor writing every field does not count — that is
/// exactly the "declared but never swept" case the rule exists to catch.
pub fn check_e02(ws: &Workspace, spec: &SweepSpec) -> Vec<Finding> {
    let traversable: BTreeSet<&str> =
        spec.exercise_files.iter().chain(spec.layer_files).copied().collect();

    // BFS from the exercise-file entry points; edges are fq-exact where
    // resolved, name-matched for the unresolved remainder.
    let g = CallGraph::build(ws, |rel| traversable.contains(rel));
    let seeds: Vec<usize> = g
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, (rel, _))| spec.exercise_files.contains(rel))
        .map(|(i, _)| i)
        .collect();
    let reachable = g.reach(seeds, |_| false);

    let mut out = Vec::new();
    for cs in spec.structs {
        let Some(def) = ws.struct_def(cs.config_rel, cs.struct_name) else { continue };
        let struct_fq = ws.struct_fq(cs.config_rel, cs.struct_name);
        for field in def.fields.iter().filter(|f| f.is_pub) {
            let mut writer_fns: BTreeSet<(&str, u32)> = BTreeSet::new();
            let mut param_derived = false;
            for &i in &reachable {
                let (rel, f) = g.nodes[i];
                for w in &f.writes {
                    // Prefer the resolved struct identity when both sides
                    // carry one — a same-named struct in another module no
                    // longer credits this spec's field.
                    let type_ok = match (&w.type_fq, &struct_fq) {
                        (Some(wfq), Some(sfq)) => wfq == sfq,
                        _ => w.type_name.as_deref().is_none_or(|t| t == cs.struct_name),
                    };
                    if w.field == field.name && type_ok && !w.zero_literal {
                        writer_fns.insert((rel, f.line));
                        param_derived |= w.param_derived;
                    }
                }
            }
            if !(param_derived || writer_fns.len() >= 2) {
                out.push(Finding {
                    id: "E02",
                    path: cs.config_rel.to_string(),
                    line: field.line,
                    ident: field.name.clone(),
                    message: format!(
                        "pub config field `{}.{}` is never exercised by an experiment sweep \
                         or env override ({}) — add a sweep that varies it (or a builder the \
                         sweeps call), or drop the knob",
                        cs.struct_name,
                        field.name,
                        spec.exercise_files.join(", ")
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// E03 — timing-half isolation of the prefill call graph
// ---------------------------------------------------------------------------

/// E03 rule spec: the timing-half config struct, the parent-config field
/// holding it, the entry-point name prefix, and the source tree the
/// reachability walk may traverse.
pub struct IsolationSpec<'a> {
    /// The timing-half struct whose fields are off-limits.
    pub timing_struct: &'a str,
    /// File defining `timing_struct`.
    pub config_rel: &'a str,
    /// Parent-config field holding the timing half (`SystemConfig.timing`);
    /// reading it at all from the prefill call graph is a violation.
    pub timing_field: &'a str,
    /// Non-test fns whose names start with this prefix are the roots.
    pub entry_prefix: &'a str,
    /// Repo-relative path prefixes the BFS may traverse.
    pub traversal: &'a [&'a str],
}

/// The real tree's E03 spec. The prefill checkpoint store
/// (`crates/system/src/server.rs`) keys warmed machine state by the
/// functional config slice alone, so every timing sibling of a functional
/// config shares one checkpoint — sound only while nothing on the prefill
/// call graph can observe the timing half.
pub const E03_SPEC: IsolationSpec<'static> = IsolationSpec {
    timing_struct: "TimingConfig",
    config_rel: "crates/system/src/config.rs",
    timing_field: "timing",
    entry_prefix: "prefill",
    traversal: &[
        "crates/system/src/",
        "crates/cache/src/",
        "crates/cpu/src/",
        "crates/workloads/src/",
        "crates/sim/src/",
    ],
};

/// Constructor-shaped callee names the E03 walk does not enter: ctors and
/// builders legitimately consume the timing half to *build* the machine
/// (a `Hierarchy::new` takes DRAM timings); E03 polices the prefill replay
/// that runs over the already-built machine.
const E03_CTOR_NAMES: &[&str] = &["new", "default", "table_iii"];
const E03_CTOR_PREFIXES: &[&str] = &["with_", "from_"];

fn e03_is_ctor(name: &str) -> bool {
    E03_CTOR_NAMES.contains(&name) || E03_CTOR_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// E03: no fn reachable from the prefill entry points may read a
/// timing-half field. Reachability uses the resolved call graph (fq-exact
/// edges, name-matched for the unresolved remainder); the remaining
/// over-approximation can only widen the guarded graph, never shrink it —
/// the right failure direction for an isolation proof. Reads attribute
/// the same way: a typed read flags only when the receiver resolves to
/// the timing struct (or holds it in the parent `timing` field); an
/// unresolved read keeps the old name-match over-approximation.
pub fn check_e03(ws: &Workspace, spec: &IsolationSpec) -> Vec<Finding> {
    let Some(def) = ws.struct_def(spec.config_rel, spec.timing_struct) else {
        return Vec::new();
    };
    let mut timing_fields: BTreeSet<&str> = def.fields.iter().map(|f| f.name.as_str()).collect();
    timing_fields.insert(spec.timing_field);
    let timing_fq = ws.struct_fq(spec.config_rel, spec.timing_struct);

    let in_walk = |rel: &str| spec.traversal.iter().any(|p| rel.starts_with(p));
    let g = CallGraph::build(ws, in_walk);
    let seeds: Vec<usize> = g
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, (_, f))| f.name.starts_with(spec.entry_prefix))
        .map(|(i, _)| i)
        .collect();
    let reachable = g.reach(seeds, e03_is_ctor);

    let mut out = Vec::new();
    for &i in &reachable {
        let (rel, f) = g.nodes[i];
        let mut flagged: BTreeSet<&str> = BTreeSet::new();
        for field in f.reads_unresolved.iter().filter(|r| timing_fields.contains(r.as_str())) {
            flagged.insert(field.as_str());
        }
        for (ty_fq, field) in &f.reads_typed {
            let on_timing_struct = timing_fq.as_deref() == Some(ty_fq.as_str())
                && timing_fields.contains(field.as_str());
            // `cfg.timing` on any struct whose `timing` field holds the
            // timing half is a read of the half itself.
            let holds_timing_half = field == spec.timing_field
                && ws
                    .resolver
                    .field_ty(ty_fq, spec.timing_field)
                    .and_then(|t| t.ty.as_deref())
                    .is_some_and(|t| timing_fq.as_deref() == Some(t));
            if on_timing_struct || holds_timing_half {
                flagged.insert(field.as_str());
            }
        }
        for field in flagged {
            out.push(Finding {
                id: "E03",
                path: rel.to_string(),
                line: f.line,
                ident: field.to_string(),
                message: format!(
                    "`{}` is reachable from the prefill entry points but reads \
                     timing-half field `{field}` — post-prefill checkpoints are keyed \
                     by the functional config slice alone, so a {} read on the \
                     prefill call graph silently invalidates every shared checkpoint; \
                     move the read out of the prefill path or promote the knob into \
                     the functional half and the key",
                    f.name, spec.timing_struct
                ),
            });
        }
    }
    out.sort_by(|a, b| (&a.path, a.line, &a.ident).cmp(&(&b.path, b.line, &b.ident)));
    out
}

// ---------------------------------------------------------------------------
// M01 — metric path hygiene + component stamp coverage
// ---------------------------------------------------------------------------

/// M01 rule spec: the latency-component enum, its defining file, and the
/// record struct whose inits are the stamp sites.
pub struct MetricSpec<'a> {
    pub component_enum: &'a str,
    pub enum_rel: &'a str,
    pub record_struct: &'a str,
}

/// The real tree's M01 spec.
pub const M01_SPEC: MetricSpec<'static> = MetricSpec {
    component_enum: "Component",
    enum_rel: "crates/telemetry/src/attribution.rs",
    record_struct: "MissRecord",
};

/// Scope for metric-path checks: crate sources (not tests/, benches/).
fn in_metric_scope(rel: &str) -> bool {
    rel.contains("/src/") || rel.starts_with("src/")
}

/// Convert a CamelCase variant name to the snake_case field/label form
/// (`IssueWait` → `issue_wait`).
fn camel_to_snake(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// One metric path segment: lowercase snake (with `*` where format holes
/// collapsed).
fn valid_segment(seg: &str) -> bool {
    !seg.is_empty()
        && seg.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '*')
}

pub fn check_m01(ws: &Workspace, spec: &MetricSpec) -> Vec<Finding> {
    let mut out = Vec::new();

    // (1) Path shape + (2) constant-path collisions across files.
    let mut constant_sites: std::collections::BTreeMap<&str, Vec<(&str, u32)>> = Default::default();
    for (rel, syms) in &ws.files {
        if !in_metric_scope(rel) {
            continue;
        }
        for f in syms.fns.iter().filter(|f| !f.in_test) {
            for reg in &f.metric_regs {
                if !reg.pattern.split('.').all(valid_segment) {
                    out.push(Finding {
                        id: "M01",
                        path: rel.clone(),
                        line: reg.line,
                        ident: reg.pattern.clone(),
                        message: format!(
                            "metric path `{}` is not lowercase-dot-case — registry dot-paths \
                             must be machine-parseable ([a-z0-9_] segments joined by `.`)",
                            reg.pattern
                        ),
                    });
                }
                if reg.constant {
                    constant_sites.entry(reg.pattern.as_str()).or_default().push((rel, reg.line));
                }
            }
        }
    }
    for (pattern, sites) in &constant_sites {
        let files: BTreeSet<&str> = sites.iter().map(|(rel, _)| *rel).collect();
        if files.len() > 1 {
            let (first_rel, first_line) = sites[0];
            for (rel, line) in &sites[1..] {
                if *rel == first_rel {
                    continue;
                }
                out.push(Finding {
                    id: "M01",
                    path: (*rel).to_string(),
                    line: *line,
                    ident: (*pattern).to_string(),
                    message: format!(
                        "metric path `{pattern}` is also registered at \
                         {first_rel}:{first_line} — two subsystems writing one path silently \
                         overwrite each other's values; prefix one of them"
                    ),
                });
            }
        }
    }

    // (3) Every component variant has a stamp site: a non-zero
    // `RecordStruct { variant_snake: … }` init in non-test model code, or
    // a derived accessor method of that name on the record struct.
    let Some(en) = ws.enum_def(spec.enum_rel, spec.component_enum) else { return out };
    let record_fq = ws.struct_fq(spec.enum_rel, spec.record_struct);
    let mut stamped: BTreeSet<String> = BTreeSet::new();
    let mut derived: BTreeSet<String> = BTreeSet::new();
    for (rel, syms) in &ws.files {
        for f in &syms.fns {
            if f.owner.as_deref() == Some(spec.record_struct) {
                // With the resolver active, only methods on *the* record
                // struct count — a same-named struct elsewhere no longer
                // contributes accessors. Unresolved (`?::…`) owners keep
                // the name-match credit so imprecision cannot flag.
                let owner_ok = match &record_fq {
                    Some(rfq) => f.fq.starts_with('?') || f.fq == format!("{rfq}::{}", f.name),
                    None => true,
                };
                if owner_ok {
                    derived.insert(f.name.clone());
                }
            }
            if f.in_test || !in_model_src(rel) {
                continue;
            }
            for w in &f.writes {
                let type_ok = match (&w.type_fq, &record_fq) {
                    (Some(wfq), Some(rfq)) => wfq == rfq,
                    _ => w.type_name.as_deref() == Some(spec.record_struct),
                };
                if type_ok && !w.zero_literal {
                    stamped.insert(w.field.clone());
                }
            }
        }
    }
    for v in &en.variants {
        let snake = camel_to_snake(&v.name);
        if !stamped.contains(&snake) && !derived.contains(&snake) {
            out.push(Finding {
                id: "M01",
                path: spec.enum_rel.to_string(),
                line: v.line,
                ident: v.name.clone(),
                message: format!(
                    "latency component `{}::{}` has no stamp site: no non-zero \
                     `{} {{ {snake}: … }}` init in model code and no `{}::{snake}()` \
                     accessor — an unstamped component reports misleading zeros in every \
                     breakdown",
                    spec.component_enum, v.name, spec.record_struct, spec.record_struct
                ),
            });
        }
    }
    out
}

/// One metric registration, exposed for the fixture tests.
pub fn metric_regs_of<'w>(ws: &'w Workspace, rel: &str) -> Vec<&'w MetricReg> {
    ws.files
        .get(rel)
        .map(|s| s.fns.iter().flat_map(|f| f.metric_regs.iter()).collect())
        .unwrap_or_default()
}

// ---------------------------------------------------------------------------
// E04 — CLI surface reachability
// ---------------------------------------------------------------------------

/// E04 rule spec: where the CLI surface lives and which files' text counts
/// as documentation for environment knobs.
pub struct CliSpec<'a> {
    /// Repo-relative path of the CLI binary. Its leading `//!` header is
    /// the usage text (`usage()` prints it verbatim), and its string
    /// match arms are the accepted subcommands and flags.
    pub bin_rel: &'a str,
    /// Environment-variable prefix that marks a knob as ours.
    pub env_prefix: &'a str,
    /// Name prefixes exempt from the documentation requirement
    /// (test-scratch variables).
    pub env_exclude: &'a [&'a str],
    /// Files whose full text (doc tables included) counts as env-knob
    /// documentation.
    pub env_doc_rels: &'a [&'a str],
}

/// The real tree's E04 spec.
pub const E04_SPEC: CliSpec<'static> = CliSpec {
    bin_rel: "src/bin/coaxial.rs",
    env_prefix: "COAXIAL_",
    env_exclude: &["COAXIAL_TEST"],
    env_doc_rels: &["crates/sim/src/env.rs", "crates/gateway/src/lib.rs"],
};

/// Leading `//!` doc block of a file as `(line, text-after-marker)` rows.
fn inner_doc_header(src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("//!") {
            let line = u32::try_from(i).unwrap_or(u32::MAX - 1) + 1;
            out.push((line, rest.trim_start_matches(' ').to_string()));
        } else if !t.is_empty() {
            break;
        }
    }
    out
}

/// String literals that form match-arm patterns (`"a" | "b" => …`),
/// with the line of each literal.
fn string_match_arms(code: &[Tok]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for i in 1..code.len() {
        if !(code[i - 1].is_punct('=') && code[i].is_punct('>')) {
            continue;
        }
        // Walk backward over `Str (| Str)*` ending right before the `=>`.
        let mut j = i - 1;
        while j > 0 && code[j - 1].kind == TokKind::Str {
            let t = &code[j - 1];
            out.push((t.text.trim_matches('"').to_string(), t.line));
            j -= 1;
            if j > 0 && code[j - 1].is_punct('|') {
                j -= 1;
            } else {
                break;
            }
        }
    }
    out
}

/// Strip the usage markup around a header token (`[--ops` → `--ops`).
fn trim_markup(tok: &str) -> &str {
    tok.trim_matches(|c: char| matches!(c, '[' | ']' | '(' | ')' | ',' | '.' | '`' | '#'))
}

/// E04: the CLI surface must be closed under documentation.
///
/// Forward: every subcommand / `--flag` string match arm in the binary
/// must appear in its usage header. Reverse: every `coaxial <sub>` line
/// and every line-leading `--flag` in the header must have a match arm.
/// Env: every `{prefix}*` name in a string literal anywhere in the
/// workspace must appear in one of the env-doc files.
pub fn check_e04(sources: &[(String, String)], spec: &CliSpec) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some((bin_rel, bin_src)) = sources.iter().find(|(rel, _)| rel == spec.bin_rel) else {
        return out; // synthetic fixture tree without the binary
    };
    let bin_name = spec.bin_rel.rsplit('/').next().unwrap_or(spec.bin_rel).trim_end_matches(".rs");
    let header = inner_doc_header(bin_src);
    let code = parser::code_toks(bin_src);

    // -- the accepted surface: string match arms, classified ---------------
    let mut arm_subs: BTreeSet<String> = BTreeSet::new();
    let mut arm_flags: BTreeSet<String> = BTreeSet::new();
    let mut arm_sites: Vec<(String, u32, bool)> = Vec::new(); // (name, line, is_flag)
    for (text, line) in string_match_arms(&code) {
        if text.starts_with("--") && text.len() > 2 {
            arm_flags.insert(text.clone());
            arm_sites.push((text, line, true));
        } else if !text.is_empty()
            && text.chars().next().is_some_and(|c| c.is_ascii_lowercase())
            && text.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        {
            arm_subs.insert(text.clone());
            arm_sites.push((text, line, false));
        }
    }

    // -- the documented surface: header lines ------------------------------
    let mut doc_subs: BTreeSet<&str> = BTreeSet::new();
    let mut doc_flags: BTreeSet<&str> = BTreeSet::new();
    let mut doc_sub_sites: Vec<(&str, u32)> = Vec::new();
    let mut doc_flag_sites: Vec<(&str, u32)> = Vec::new();
    for (line_no, text) in &header {
        let mut toks = text.split_whitespace().map(trim_markup);
        let first = toks.next().unwrap_or("");
        if first == bin_name {
            // Only identifier-shaped words are subcommands; the title line
            // ("coaxial — a …") and prose mentions are skipped.
            if let Some(sub) = toks.next().filter(|s| {
                s.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                    && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
            }) {
                doc_subs.insert(sub);
                doc_sub_sites.push((sub, *line_no));
            }
        } else if first.starts_with("--") {
            doc_flags.insert(first);
            doc_flag_sites.push((first, *line_no));
        }
        // Flags documented mid-line ("[--ops N]", "--trace-end <c>") count
        // as documented, but only line-leading ones are reverse-checked.
        for tok in text.split_whitespace().map(trim_markup) {
            if tok.starts_with("--") && tok.len() > 2 {
                doc_flags.insert(tok);
            }
        }
    }

    // Forward: accepted but undocumented.
    for (name, line, is_flag) in &arm_sites {
        let documented = if *is_flag {
            doc_flags.contains(name.as_str())
        } else {
            doc_subs.contains(name.as_str())
        };
        if !documented {
            out.push(Finding {
                id: "E04",
                path: bin_rel.clone(),
                line: *line,
                ident: name.clone(),
                message: format!(
                    "CLI {} `{name}` is accepted by a match arm but missing from the \
                     usage header — users cannot discover it (usage() prints the header \
                     verbatim)",
                    if *is_flag { "option" } else { "subcommand" }
                ),
            });
        }
    }
    // Reverse: documented but not accepted.
    for (sub, line) in doc_sub_sites {
        if !arm_subs.contains(sub) {
            out.push(Finding {
                id: "E04",
                path: bin_rel.clone(),
                line,
                ident: sub.to_string(),
                message: format!(
                    "usage header documents subcommand `{sub}` but no string match arm \
                     in the binary handles it — the documented surface is unreachable"
                ),
            });
        }
    }
    for (flag, line) in doc_flag_sites {
        if !arm_flags.contains(flag) {
            out.push(Finding {
                id: "E04",
                path: bin_rel.clone(),
                line,
                ident: flag.to_string(),
                message: format!(
                    "usage header documents option `{flag}` but no string match arm in \
                     the binary parses it — the documented surface is unreachable"
                ),
            });
        }
    }

    // -- env knobs: every used name must be documented ----------------------
    let mut doc_text = String::new();
    for rel in spec.env_doc_rels {
        if let Some((_, src)) = sources.iter().find(|(r, _)| r == rel) {
            doc_text.push_str(src);
            doc_text.push('\n');
        }
    }
    for (rel, src) in sources {
        for t in crate::lexer::lex(src) {
            if t.kind != TokKind::Str {
                continue;
            }
            for name in env_names_in(&t.text, spec.env_prefix) {
                if spec.env_exclude.iter().any(|p| name.starts_with(p)) {
                    continue;
                }
                if !doc_text.contains(&name) {
                    out.push(Finding {
                        id: "E04",
                        path: rel.clone(),
                        line: t.line,
                        ident: name.clone(),
                        message: format!(
                            "environment knob `{name}` is read here but documented in none \
                             of {:?} — undocumented env vars are an unreachable surface",
                            spec.env_doc_rels
                        ),
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line, &a.ident).cmp(&(&b.path, b.line, &b.ident)));
    out.dedup_by(|a, b| (&a.path, a.line, &a.ident) == (&b.path, b.line, &b.ident));
    out
}

/// `{prefix}[A-Z0-9_]+` names inside a string literal's source slice.
/// Names that stop at the prefix (dynamic `format!` stems) are skipped.
fn env_names_in(literal: &str, prefix: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = literal;
    while let Some(pos) = rest.find(prefix) {
        let tail = &rest[pos..];
        let len = tail
            .char_indices()
            .take_while(|(_, c)| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
            .map(|(i, c)| i + c.len_utf8())
            .last()
            .unwrap_or(0);
        let name = &tail[..len];
        if name.len() > prefix.len() && !name.ends_with('_') {
            out.push(name.to_string());
        }
        rest = &rest[pos + prefix.len()..];
    }
    out
}

// ---------------------------------------------------------------------------
// L01 — gateway lock discipline
// ---------------------------------------------------------------------------

/// L01 rule spec: which mutexes are the gateway state locks and which
/// call-graph nodes count as heavy simulation work.
pub struct LockSpec<'a> {
    /// Mutex-identity prefix (fq of the static or `Struct::field` path)
    /// marking a lock as gateway state.
    pub guard_prefix: &'a str,
    /// Heavy entry points (fq) that must never be reachable while a
    /// gateway guard is live — simulation runs block for seconds, and a
    /// request thread holding the state lock through one starves every
    /// other connection.
    pub forbidden_fqs: &'a [&'a str],
}

/// The real tree's L01 spec.
pub const L01_SPEC: LockSpec<'static> = LockSpec {
    guard_prefix: "coaxial_gateway::",
    forbidden_fqs: &[
        "coaxial_system::runner::RunSpec::run",
        "coaxial_system::runner::parallel_map",
        "coaxial_system::runner::parallel_map_jobs",
        "coaxial_system::runner::run_all",
        "coaxial_system::runner::run_all_jobs",
    ],
};

/// L01: lock discipline over the resolved call graph.
///
/// (1) No heavy entry point may be reachable from a call site inside a
/// live gateway-guard region. (2) No fn reachable from inside a region
/// may re-acquire the same mutex (self-deadlock). (3) A body must not
/// acquire a mutex it already holds. (4) Every pair of mutexes must be
/// acquired in one consistent order workspace-wide.
pub fn check_l01(ws: &Workspace, spec: &LockSpec) -> Vec<Finding> {
    let mut out = Vec::new();
    let g = CallGraph::build(ws, |_| true).with_crate_scoped_names();
    let forbidden: BTreeSet<&str> = spec.forbidden_fqs.iter().copied().collect();

    for (rel, syms) in &ws.files {
        for f in syms.fns.iter().filter(|f| !f.in_test) {
            // (3) double-acquisition in one scope.
            for e in &f.lock_order {
                if e.held == e.acquired {
                    out.push(Finding {
                        id: "L01",
                        path: rel.clone(),
                        line: e.line,
                        ident: f.name.clone(),
                        message: format!(
                            "`{}` acquires `{}` while already holding it — a std::sync::Mutex \
                             is not reentrant, so this self-deadlocks at runtime",
                            f.name, e.acquired
                        ),
                    });
                }
            }
            for region in &f.lock_regions {
                let gateway = region.mutex.starts_with(spec.guard_prefix);
                // Seeds: call sites textually inside the guard region.
                let seeds: Vec<usize> = f
                    .call_sites
                    .iter()
                    .filter(|cs| cs.pos >= region.start && cs.pos < region.end)
                    .flat_map(|cs| g.site_targets(rel, cs))
                    .collect();
                if seeds.is_empty() {
                    continue;
                }
                let reach = g.reach(seeds, |_| false);
                for &i in &reach {
                    let (_, callee) = g.nodes[i];
                    // (1) heavy work under a gateway guard.
                    if gateway && forbidden.contains(callee.fq.as_str()) {
                        out.push(Finding {
                            id: "L01",
                            path: rel.clone(),
                            line: region.line,
                            ident: f.name.clone(),
                            message: format!(
                                "`{}` holds gateway lock `{}` while `{}` is reachable — \
                                 simulation runs block for seconds and would starve every \
                                 other connection; collect inputs under the lock, drop the \
                                 guard, then execute",
                                f.name, region.mutex, callee.fq
                            ),
                        });
                    }
                    // (2) interprocedural re-acquisition of a held mutex.
                    if callee.lock_regions.iter().any(|r2| r2.mutex == region.mutex) {
                        out.push(Finding {
                            id: "L01",
                            path: rel.clone(),
                            line: region.line,
                            ident: f.name.clone(),
                            message: format!(
                                "`{}` holds `{}` while `{}` (which re-acquires it) is \
                                 reachable — a std::sync::Mutex is not reentrant, so this \
                                 path self-deadlocks",
                                f.name, region.mutex, callee.name
                            ),
                        });
                    }
                }
            }
        }
    }

    // (4) workspace-wide acquisition-order consistency: the directed graph
    // `held → acquired` over mutex identities must be acyclic.
    let mut edges: std::collections::BTreeMap<&str, BTreeSet<&str>> = Default::default();
    let mut site: std::collections::BTreeMap<(&str, &str), (&str, u32, &str)> = Default::default();
    for (rel, syms) in &ws.files {
        for f in syms.fns.iter().filter(|f| !f.in_test) {
            for e in &f.lock_order {
                if e.held == e.acquired {
                    continue; // reported above
                }
                edges.entry(&e.held).or_default().insert(&e.acquired);
                site.entry((&e.held, &e.acquired)).or_insert((rel, e.line, &f.name));
            }
        }
    }
    // DFS with colors; report one finding per back edge found.
    let mut color: std::collections::BTreeMap<&str, u8> = Default::default();
    let nodes: Vec<&str> = edges.keys().copied().collect();
    fn dfs<'a>(
        n: &'a str,
        edges: &std::collections::BTreeMap<&'a str, BTreeSet<&'a str>>,
        color: &mut std::collections::BTreeMap<&'a str, u8>,
        back: &mut Vec<(&'a str, &'a str)>,
    ) {
        color.insert(n, 1);
        for &m in edges.get(n).into_iter().flatten() {
            match color.get(m).copied().unwrap_or(0) {
                0 => dfs(m, edges, color, back),
                1 => back.push((n, m)),
                _ => {}
            }
        }
        color.insert(n, 2);
    }
    let mut back = Vec::new();
    for n in nodes {
        if color.get(n).copied().unwrap_or(0) == 0 {
            dfs(n, &edges, &mut color, &mut back);
        }
    }
    for (held, acquired) in back {
        let (rel, line, fn_name) = site[&(held, acquired)];
        out.push(Finding {
            id: "L01",
            path: rel.to_string(),
            line,
            ident: fn_name.to_string(),
            message: format!(
                "inconsistent lock order: `{fn_name}` acquires `{acquired}` while holding \
                 `{held}`, but another path acquires them in the opposite order — pick one \
                 workspace-wide order or merge the locks"
            ),
        });
    }

    out.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    out.dedup_by(|a, b| (&a.path, a.line, &a.message) == (&b.path, b.line, &b.message));
    out
}

// ---------------------------------------------------------------------------
// E05 — CLI-flag reachability
// ---------------------------------------------------------------------------

/// E05 rule spec: the CLI binary whose dispatch `match` is audited and
/// the experiments module whose pub fns must all be wired to some arm.
pub struct CliReachSpec<'a> {
    pub bin_rel: &'a str,
    pub experiments_rel: &'a str,
}

/// The real tree's E05 spec.
pub const E05_SPEC: CliReachSpec<'static> = CliReachSpec {
    bin_rel: "src/bin/coaxial.rs",
    experiments_rel: "crates/system/src/experiments.rs",
};

/// `true` when `rel` is library code (not the audited binary, not tests).
fn is_lib_rel(bin_rel: &str, rel: &str) -> bool {
    if rel == bin_rel || rel.starts_with("src/bin/") {
        return false;
    }
    (rel.starts_with("crates/") && rel.contains("/src/"))
        || rel == "src/lib.rs"
        || rel.starts_with("src/")
}

/// E05: CLI dispatch must be wired, distinct, and complete.
///
/// (a) Every string match arm in the binary's dispatch must reach at
/// least one library fn. (b) No two arms may dispatch to an identical
/// library entry set — duplicate wiring means one subcommand is a silent
/// alias. (c) Every pub experiment fn must be reachable from some arm.
pub fn check_e05(ws: &Workspace, ctxs: &[FileCtx], spec: &CliReachSpec) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(ctx) = ctxs.iter().find(|c| c.rel == spec.bin_rel) else {
        return out; // synthetic fixture tree without the binary
    };
    let Some(bin) = ws.files.get(spec.bin_rel) else { return out };
    let Some(main) = bin.fns.iter().find(|f| f.name == "main" && f.owner.is_none()) else {
        return out;
    };
    let Some(body) = main.body.and_then(|(open, _)| ctx.bodies.get(&open)) else { return out };
    // The dispatch: the first `match` in `main`, arms with string patterns.
    let mut dispatch = None;
    body.walk(&mut |e| {
        if let (None, Expr::Match { arms, .. }) = (&dispatch, e) {
            dispatch = Some(arms);
        }
    });
    let g = CallGraph::build(ws, |_| true);

    // Per arm: frontier-crossing entry set (first lib node on each path
    // out of the binary) and the full reachable set.
    let mut arm_entries: Vec<(String, u32, BTreeSet<String>)> = Vec::new();
    let mut reach_union: BTreeSet<String> = BTreeSet::new();
    for arm in dispatch.into_iter().flatten() {
        let names: Vec<(&str, u32)> = arm
            .pat
            .iter()
            .map_while(|p| match p {
                Expr::Str { text, line } => Some((text.trim_matches('"'), *line)),
                _ => None,
            })
            .collect();
        let Some(&(_, line)) = names.first() else { continue };
        let mut in_arm = BTreeSet::new();
        arm.body.walk(&mut |e| {
            if let Expr::Call { pos, .. } = e {
                in_arm.insert(*pos);
            }
        });
        let seeds: Vec<usize> = main
            .call_sites
            .iter()
            .filter(|cs| in_arm.contains(&cs.pos))
            .flat_map(|cs| g.site_targets(spec.bin_rel, cs))
            .collect();
        let reach: Vec<(&str, &FnSym)> =
            g.reach(seeds, |_| false).iter().map(|&i| g.nodes[i]).collect();
        let entries: BTreeSet<String> = reach
            .iter()
            .filter(|(rel, _)| is_lib_rel(spec.bin_rel, rel))
            .map(|(_, f)| f.fq.clone())
            .collect();
        reach_union.extend(reach.iter().map(|(_, f)| f.fq.clone()));
        let label = names.iter().map(|(n, _)| *n).collect::<Vec<_>>().join("|");
        if entries.is_empty() {
            out.push(Finding {
                id: "E05",
                path: spec.bin_rel.to_string(),
                line,
                ident: label.clone(),
                message: format!(
                    "CLI arm `{label}` reaches no library entry point — the subcommand is \
                     accepted but wired to nothing; route it into a pub library fn so the \
                     behavior is testable outside the binary"
                ),
            });
        }
        arm_entries.push((label, line, entries));
    }

    // (b) pairwise-distinct entry sets.
    for i in 0..arm_entries.len() {
        for j in i + 1..arm_entries.len() {
            let (a, _, ea) = &arm_entries[i];
            let (b, line, eb) = &arm_entries[j];
            if !ea.is_empty() && ea == eb {
                out.push(Finding {
                    id: "E05",
                    path: spec.bin_rel.to_string(),
                    line: *line,
                    ident: b.clone(),
                    message: format!(
                        "CLI arms `{a}` and `{b}` dispatch to identical library entry \
                         points ({}) — one of them is a silent alias; give each arm a \
                         distinct entry point or merge the arms",
                        ea.iter().cloned().collect::<Vec<_>>().join(", ")
                    ),
                });
            }
        }
    }

    // (c) every pub experiment fn is reachable from some arm.
    if let Some(exp) = ws.files.get(spec.experiments_rel) {
        for f in exp.fns.iter().filter(|f| !f.in_test && f.is_pub && f.owner.is_none()) {
            if !reach_union.contains(&f.fq) {
                out.push(Finding {
                    id: "E05",
                    path: spec.experiments_rel.to_string(),
                    line: f.line,
                    ident: f.name.clone(),
                    message: format!(
                        "pub experiment fn `{}` is not reachable from any CLI arm — every \
                         experiment must be runnable from the binary (wire it into a \
                         subcommand or the `exp` dispatcher) or made private",
                        f.name
                    ),
                });
            }
        }
    }
    out
}
