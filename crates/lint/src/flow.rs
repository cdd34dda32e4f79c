//! Unit-of-measure dataflow: a statement-level CFG and an abstract
//! interpreter over a unit lattice.
//!
//! Each fn body's expression tree ([`crate::body`], parsed once with its
//! file) is lowered here into a statement-level control-flow graph, and a
//! worklist fixpoint propagates an abstract *unit* per local through
//! arithmetic, field reads/writes, calls, and returns. Nodes that carry no
//! unit (strings, macros, ranges, `if let` scrutinees) evaluate to
//! `Unknown` without being descended into.
//!
//! ## The lattice
//!
//! ```text
//!            Unknown                (top: could be anything — HIDES findings)
//!   /    /     |      \       \
//! Cycles Nanos Bytes Instructions Ratio     (the five known units)
//!   \    \     |      /       /
//!             Lit               (bottom: a bare numeric literal adopts any unit)
//! ```
//!
//! `Unknown` obeys the established precision contract: it can only *hide*
//! findings, never invent them — every Q-rule check requires both sides to
//! be `Known` before it fires. `Lit` is the literal chameleon: `dur.max(1)`
//! keeps `dur`'s unit, `x_cycles + 3` is fine.
//!
//! ## Seeding (the ground truth)
//!
//! * the `Cycle` type alias claims `Cycles`;
//! * `_ns`/`_nanos`, `_cycles`/`_cycle`, `_bytes`, `_instr`/`_instrs`/
//!   `_instructions`, and `_ratio` suffixes on fields, params, consts, and
//!   fn names claim their unit — **except** names containing a `per`
//!   segment (`bytes_per_cycle` is a rate, not bytes);
//! * `cycles_to_ns`/`ns_to_cycles` get their summaries from their own
//!   signatures (param types + name suffixes), so the blessed conversions
//!   are the only sanctioned unit boundary;
//! * `NS_PER_CYCLE`/`CPU_FREQ_GHZ` mentions evaluate to `Unknown` (Q02
//!   already flags them; evaluating them would only cascade Q01 noise).
//!
//! ## The rules
//!
//! * **Q01** — no mixed-unit `+`/`-`/`%`/comparison, and no cross-unit
//!   assignment, argument, or return against a *type- or let-claimed*
//!   slot without a blessed conversion.
//! * **Q02** — cycles↔ns conversion only through the clock module
//!   (`crates/telemetry/src/time.rs`): a bare `* 2.4`, `/ CPU_FREQ_GHZ`, or
//!   hand-rolled `* NS_PER_CYCLE` anywhere else is a finding (token-level,
//!   so it also sees macro args).
//! * **Q03** — every `pub` field/param whose *name* claims a unit suffix
//!   must actually be written with that unit at every write site.
//!
//! Fixed-point function summaries run over the resolved call graph
//! ([`crate::resolve`]); unresolved call sites fall back to
//! globally-unique fn names, so resolution only ever *narrows* (same
//! contract as E05).

use std::collections::{BTreeMap, BTreeSet};

use crate::body::{Arm, BinOp, Block, Expr, Stmt};
use crate::lexer::TokKind;
use crate::rules::FileCtx;
use crate::symbols::{FnSym, Workspace};
use crate::Finding;

// ---------------------------------------------------------------------------
// Lattice
// ---------------------------------------------------------------------------

/// The five known units a value can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Unit {
    Cycles,
    Nanos,
    Bytes,
    Instructions,
    Ratio,
}

impl Unit {
    pub fn name(self) -> &'static str {
        match self {
            Unit::Cycles => "cycles",
            Unit::Nanos => "ns",
            Unit::Bytes => "bytes",
            Unit::Instructions => "instructions",
            Unit::Ratio => "ratio",
        }
    }
}

/// Where a unit claim came from. Type-backed claims route violations to
/// Q01 (the slot's *type* demands the unit); suffix-backed claims route to
/// Q03 (the slot's *name* promises the unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prov {
    Type,
    Suffix,
}

/// Abstract value: bottom (`Lit`), one of five units, or top (`Unknown`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Abs {
    /// A bare numeric literal — adopts whatever unit it meets.
    Lit,
    Known(Unit),
    Unknown,
}

impl Abs {
    pub fn join(self, o: Abs) -> Abs {
        match (self, o) {
            (Abs::Lit, x) | (x, Abs::Lit) => x,
            (Abs::Known(a), Abs::Known(b)) if a == b => self,
            _ => Abs::Unknown,
        }
    }

    fn known(self) -> Option<Unit> {
        match self {
            Abs::Known(u) => Some(u),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Seeding
// ---------------------------------------------------------------------------

/// Unit claimed by an identifier's trailing `_`-segment (or whole name).
/// Names with a `per` segment are rates (`bytes_per_cycle`,
/// `NS_PER_CYCLE`) and claim nothing.
pub fn suffix_unit(name: &str) -> Option<Unit> {
    let lower = name.to_ascii_lowercase();
    let segs: Vec<&str> = lower.split('_').filter(|s| !s.is_empty()).collect();
    if segs.contains(&"per") {
        return None;
    }
    match *segs.last()? {
        "ns" | "nanos" => Some(Unit::Nanos),
        "cycles" | "cycle" => Some(Unit::Cycles),
        "bytes" => Some(Unit::Bytes),
        "instr" | "instrs" | "instructions" => Some(Unit::Instructions),
        "ratio" => Some(Unit::Ratio),
        _ => None,
    }
}

/// Unit claimed by a declared type (space-joined token text). The `Cycle`
/// alias — sim's or telemetry's — is the only type-level ground truth.
pub fn type_unit(ty: &str) -> Option<Unit> {
    if ty.split_whitespace().any(|t| t == "Cycle") {
        Some(Unit::Cycles)
    } else {
        None
    }
}

/// Claim for a slot: declared type first (stronger), then name suffix.
fn slot_claim(name: &str, ty: &str) -> Option<(Unit, Prov)> {
    if let Some(u) = type_unit(ty) {
        return Some((u, Prov::Type));
    }
    suffix_unit(name).map(|u| (u, Prov::Suffix))
}

/// The one blessed conversion home: only the workspace clock module may
/// spell out the cycle↔ns relationship.
pub fn is_blessed(rel: &str) -> bool {
    rel == "crates/telemetry/src/time.rs"
}

/// Unit rules run over library/binary sources, not tests, fixtures, or
/// examples — and never inside a blessed file.
pub fn in_unit_scope(rel: &str) -> bool {
    (rel.contains("/src/") || rel.starts_with("src/")) && !is_blessed(rel)
}

/// The conversion-factor idents whose raw mention is Q02's business.
const CONVERSION_CONSTS: &[&str] = &["NS_PER_CYCLE", "CPU_FREQ_GHZ"];

/// Methods that preserve the unit of their receiver (joined with any
/// unit-carrying arguments). Mixing units through these still fires Q01
/// (`a_cycles.max(b_ns)` is as mixed as `a_cycles + b_ns`).
const PRESERVE_METHODS: &[&str] = &[
    "clone",
    "copied",
    "cloned",
    "to_owned",
    "into",
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "min",
    "max",
    "clamp",
    "abs",
    "saturating_add",
    "saturating_sub",
    "wrapping_add",
    "wrapping_sub",
    "checked_add",
    "checked_sub",
    "round",
    "floor",
    "ceil",
    "trunc",
];

// ---------------------------------------------------------------------------
// Statement-level CFG
// ---------------------------------------------------------------------------

/// One CFG statement, borrowing the body tree it was lowered from.
#[derive(Debug, Clone, Copy)]
enum CStmt<'a> {
    Let { names: &'a [String], ty: &'a str, init: Option<&'a Expr>, line: u32 },
    Eval(&'a Expr),
    Ret(Option<&'a Expr>, u32),
}

#[derive(Debug, Default)]
struct CfgBlock<'a> {
    stmts: Vec<CStmt<'a>>,
    succs: Vec<usize>,
}

struct Cfg<'a> {
    blocks: Vec<CfgBlock<'a>>,
}

struct Builder<'a> {
    blocks: Vec<CfgBlock<'a>>,
    /// `(head, exit)` of each enclosing loop, for continue/break edges.
    loops: Vec<(usize, usize)>,
}

impl<'a> Builder<'a> {
    fn new_block(&mut self) -> usize {
        self.blocks.push(CfgBlock::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    fn lower_stmts(&mut self, stmts: &'a [Stmt], mut cur: usize) -> usize {
        for s in stmts {
            cur = match s {
                Stmt::Let { names, ty, init, line, .. } => {
                    let init = init.as_ref();
                    self.blocks[cur].stmts.push(CStmt::Let { names, ty, init, line: *line });
                    cur
                }
                Stmt::Expr(e, _) => self.lower_expr_stmt(e, cur),
                Stmt::Item(_) => cur,
            };
        }
        cur
    }

    /// Lower a nested statement-position block; its tail is a plain eval.
    fn lower_block(&mut self, b: &'a Block, cur: usize) -> usize {
        let cur = self.lower_stmts(&b.stmts, cur);
        if let Some(t) = &b.tail {
            self.lower_expr_stmt(t, cur)
        } else {
            cur
        }
    }

    /// Statement-position control flow becomes CFG structure; everything
    /// else is a single `Eval`.
    fn lower_expr_stmt(&mut self, e: &'a Expr, cur: usize) -> usize {
        match e {
            Expr::If { cond, then_b, else_b } => {
                self.blocks[cur].stmts.push(CStmt::Eval(cond));
                let join = self.new_block();
                let te = self.new_block();
                self.edge(cur, te);
                let tx = self.lower_block(then_b, te);
                self.edge(tx, join);
                match else_b {
                    Some(eb) => {
                        let ee = self.new_block();
                        self.edge(cur, ee);
                        let ex = self.lower_expr_stmt(eb, ee);
                        self.edge(ex, join);
                    }
                    None => self.edge(cur, join),
                }
                join
            }
            Expr::BlockE(b) => self.lower_block(b, cur),
            Expr::While { cond, body } => {
                let head = self.new_block();
                self.edge(cur, head);
                self.blocks[head].stmts.push(CStmt::Eval(cond));
                let exit = self.new_block();
                self.edge(head, exit);
                let be = self.new_block();
                self.edge(head, be);
                self.loops.push((head, exit));
                let bx = self.lower_block(body, be);
                self.loops.pop();
                self.edge(bx, head);
                exit
            }
            Expr::Loop(body) => {
                let head = self.new_block();
                self.edge(cur, head);
                let exit = self.new_block();
                self.loops.push((head, exit));
                let bx = self.lower_block(body, head);
                self.loops.pop();
                self.edge(bx, head);
                exit
            }
            Expr::For { var, iter, body, .. } => {
                self.blocks[cur].stmts.push(CStmt::Eval(iter));
                let head = self.new_block();
                self.edge(cur, head);
                let exit = self.new_block();
                self.edge(head, exit);
                let be = self.new_block();
                self.edge(head, be);
                // Bind the loop var to an element of the iterated value,
                // which has its unit: iterating a `Vec<Cycle>` binds Cycles.
                let init = Some(&**iter);
                self.blocks[be].stmts.push(CStmt::Let { names: var, ty: "", init, line: 0 });
                self.loops.push((head, exit));
                let bx = self.lower_block(body, be);
                self.loops.pop();
                self.edge(bx, head);
                exit
            }
            Expr::Match { scrutinee, arms, .. } => {
                self.blocks[cur].stmts.push(CStmt::Eval(scrutinee));
                let join = self.new_block();
                if arms.is_empty() {
                    self.edge(cur, join);
                }
                for Arm { binds, body, .. } in arms {
                    let ae = self.new_block();
                    self.edge(cur, ae);
                    if !binds.is_empty() {
                        // pattern binds are Unknown (no init)
                        let bind = CStmt::Let { names: binds, ty: "", init: None, line: 0 };
                        self.blocks[ae].stmts.push(bind);
                    }
                    let ax = self.lower_expr_stmt(body, ae);
                    self.edge(ax, join);
                }
                join
            }
            Expr::Ret(v, line) => {
                self.blocks[cur].stmts.push(CStmt::Ret(v.as_deref(), *line));
                self.new_block() // unreachable continuation
            }
            Expr::Break(_) => {
                if let Some(&(_, exit)) = self.loops.last() {
                    self.edge(cur, exit);
                }
                self.new_block()
            }
            Expr::Continue => {
                if let Some(&(head, _)) = self.loops.last() {
                    self.edge(cur, head);
                }
                self.new_block()
            }
            other => {
                self.blocks[cur].stmts.push(CStmt::Eval(other));
                cur
            }
        }
    }
}

/// Build the CFG of one fn body. The body's tail expression is the
/// implicit return.
fn build_cfg(body: &Block) -> Cfg<'_> {
    let mut b = Builder { blocks: vec![CfgBlock::default()], loops: Vec::new() };
    let end = b.lower_stmts(&body.stmts, 0);
    if let Some(t) = &body.tail {
        let line = expr_line(t);
        b.blocks[end].stmts.push(CStmt::Ret(Some(t), line));
    }
    Cfg { blocks: b.blocks }
}

/// Best-effort source line of an expression, for finding anchors.
fn expr_line(e: &Expr) -> u32 {
    match e {
        Expr::Path { line, .. } | Expr::Field { line, .. } | Expr::Binary(_, _, _, line) => *line,
        Expr::Call { line, .. } | Expr::Assign { line, .. } => *line,
        Expr::Unary(i)
        | Expr::TupleField(i)
        | Expr::Paren(i, _)
        | Expr::Cast(i)
        | Expr::Index { base: i, .. } => expr_line(i),
        Expr::Ret(Some(i), l) => Some(expr_line(i)).filter(|&il| il != 0).unwrap_or(*l),
        Expr::Ret(None, l) => *l,
        Expr::If { cond, .. } | Expr::While { cond, .. } => expr_line(cond),
        Expr::Match { scrutinee, .. } => expr_line(scrutinee),
        Expr::StructLit { inits, .. } => inits.first().map_or(0, |i| i.line),
        Expr::Tuple(xs, _) => xs.first().map_or(0, expr_line),
        Expr::Closure { body, .. } => expr_line(body),
        Expr::BlockE(b) => b.tail.as_deref().map_or(0, expr_line),
        _ => 0,
    }
}

// ---------------------------------------------------------------------------
// Global unit index + function summaries
// ---------------------------------------------------------------------------

/// Workspace-wide claim for a field *name*: its unit-suffix claim, or the
/// consensus of every declaring struct's type (all must agree — a field
/// name typed `Cycle` in one struct and `usize` in another claims
/// nothing).
#[derive(Debug, Clone, Copy)]
struct FieldClaim {
    unit: Unit,
    prov: Prov,
    is_pub: bool,
}

/// Per-fn interface summary used at call sites.
#[derive(Debug, Clone)]
struct FnSummary {
    /// `(param name, claim)` per parameter, receiver excluded.
    params: Vec<(String, Option<(Unit, Prov)>)>,
    /// Abstract return value: the signature claim when there is one,
    /// otherwise inferred to a fixed point from the body.
    ret: Abs,
    is_pub: bool,
}

/// One analyzable fn body, pre-lowered.
struct FnUnit<'w> {
    rel: &'w str,
    sym: &'w FnSym,
    cfg: Cfg<'w>,
    /// `CallSite::pos` → fully-qualified callee for this body.
    callmap: BTreeMap<usize, String>,
    /// Param claims seed the entry environment.
    params: Vec<(String, Option<(Unit, Prov)>)>,
    ret_claim: Option<(Unit, Prov)>,
}

struct UnitIndex {
    fields: BTreeMap<String, FieldClaim>,
    /// Fn name → unique fq (None when ambiguous): the bare-name fallback.
    by_name: BTreeMap<String, Option<String>>,
}

fn is_const_ident(s: &str) -> bool {
    s.chars().any(|c| c.is_ascii_uppercase())
        && s.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Build the workspace unit model: field claims, lowered fns, and the
/// initial summary table (claimed returns `Known`, everything else `Lit`
/// pending inference).
fn build_index<'w>(
    ctxs: &'w [FileCtx],
    ws: &'w Workspace,
) -> (UnitIndex, Vec<FnUnit<'w>>, BTreeMap<String, FnSummary>) {
    // Field claims from every struct decl in the workspace.
    let mut decls: BTreeMap<String, (Vec<Option<Unit>>, bool)> = BTreeMap::new();
    for fs in ws.files.values() {
        for st in &fs.structs {
            for f in &st.fields {
                let e = decls.entry(f.name.clone()).or_default();
                e.0.push(type_unit(&f.ty));
                e.1 |= f.is_pub;
            }
        }
    }
    let mut fields = BTreeMap::new();
    for (name, (tys, is_pub)) in decls {
        if let Some(u) = suffix_unit(&name) {
            fields.insert(name, FieldClaim { unit: u, prov: Prov::Suffix, is_pub });
        } else if let Some(Some(u)) = tys.first().copied() {
            if tys.iter().all(|t| *t == Some(u)) {
                fields.insert(name, FieldClaim { unit: u, prov: Prov::Type, is_pub });
            }
        }
    }

    // Every fn with a body, lowered from the tree its file already parsed.
    let mut fns = Vec::new();
    for ctx in ctxs {
        for f in ws.files.get(ctx.rel).map_or(&[][..], |s| &s.fns) {
            let Some(body) = f.body.and_then(|(open, _)| ctx.bodies.get(&open)) else { continue };
            fns.push(FnUnit {
                rel: ctx.rel,
                sym: f,
                cfg: build_cfg(body),
                callmap: f
                    .call_sites
                    .iter()
                    .filter_map(|c| c.fq.clone().map(|fq| (c.pos, fq)))
                    .collect(),
                params: f
                    .params
                    .iter()
                    .zip(&f.param_tys)
                    .map(|(n, ty)| (n.clone(), slot_claim(n, ty)))
                    .collect(),
                ret_claim: type_unit(&f.ret)
                    .map(|u| (u, Prov::Type))
                    .or_else(|| suffix_unit(&f.name).map(|u| (u, Prov::Suffix))),
            });
        }
    }

    let mut sums: BTreeMap<String, FnSummary> = BTreeMap::new();
    let mut by_name: BTreeMap<String, Option<String>> = BTreeMap::new();
    for f in &fns {
        let (params, is_pub) = (f.params.clone(), f.sym.is_pub);
        let ret = f.ret_claim.map_or(Abs::Lit, |(u, _)| Abs::Known(u));
        sums.insert(f.sym.fq.clone(), FnSummary { params, ret, is_pub });
        let fq = &f.sym.fq;
        by_name
            .entry(f.sym.name.clone())
            .and_modify(|e| {
                if e.as_ref() != Some(fq) {
                    *e = None;
                }
            })
            .or_insert_with(|| Some(fq.clone()));
    }

    (UnitIndex { fields, by_name }, fns, sums)
}

// ---------------------------------------------------------------------------
// Abstract interpreter
// ---------------------------------------------------------------------------

type Env = BTreeMap<String, Abs>;

fn join_env(a: &Env, b: &Env) -> Env {
    let mut out = a.clone();
    for (k, v) in b {
        out.entry(k.clone()).and_modify(|x| *x = x.join(*v)).or_insert(*v);
    }
    out
}

/// A raw emitted finding: `(rule, line, ident, message)` — deduped in a
/// set because the emit pass may visit an expression more than once
/// (loop-body re-evaluation).
type Raw = (&'static str, u32, String, String);

struct Interp<'x> {
    idx: &'x UnitIndex,
    sums: &'x BTreeMap<String, FnSummary>,
    callmap: &'x BTreeMap<usize, String>,
    /// Let/param claims of the current fn (flow-insensitive).
    claims: BTreeMap<String, (Unit, Prov)>,
    ret_claim: Option<(Unit, Prov)>,
    fn_name: String,
    emit: bool,
    out: BTreeSet<Raw>,
    /// Join of every returned value (feeds summary inference).
    ret_acc: Abs,
    /// Global work bound — belt and braces against a pathological body.
    fuel: u32,
}

impl<'x> Interp<'x> {
    fn push(&mut self, id: &'static str, line: u32, ident: &str, msg: String) {
        if self.emit {
            self.out.insert((id, line, ident.to_string(), msg));
        }
    }

    /// Q01 when `a op b` mixes two different known units.
    fn check_mix(&mut self, line: u32, ident: &str, a: Abs, op: &str, b: Abs) {
        if let (Some(a), Some(b)) = (a.known(), b.known()) {
            if a != b {
                let msg = format!("mixed-unit arithmetic: {} {op} {}", a.name(), b.name());
                self.push("Q01", line, ident, msg);
            }
        }
    }

    /// `x op= v`: only `+=`, `-=` and `%=` demand matching units.
    fn check_compound(&mut self, line: u32, ident: &str, cur: Abs, op: BinOp, v: Abs) {
        if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Rem) {
            self.check_mix(line, ident, cur, &format!("{}=", op.sym()), v);
        }
    }

    /// Q01 when a known unit other than `claim` lands in a claimed local.
    fn check_claim(&mut self, line: u32, name: &str, claim: Unit, v: Abs) {
        if let Some(v) = v.known().filter(|v| *v != claim) {
            let msg = format!("assignment of {} to {}-claimed `{name}`", v.name(), claim.name());
            self.push("Q01", line, name, msg);
        }
    }

    fn field_claim(&self, name: &str) -> Option<FieldClaim> {
        self.idx.fields.get(name).copied()
    }

    /// Value of a field read: the workspace-wide claim for that name.
    fn field_abs(&self, name: &str) -> Abs {
        match self.field_claim(name) {
            Some(c) => Abs::Known(c.unit),
            None => Abs::Unknown,
        }
    }

    fn eval_path(&mut self, segs: &[String], env: &Env) -> Abs {
        let Some(last) = segs.last() else { return Abs::Unknown };
        if CONVERSION_CONSTS.contains(&last.as_str()) {
            // Q02's business; evaluating the factor would cascade Q01s.
            return Abs::Unknown;
        }
        if segs.len() == 1 {
            if let Some(v) = env.get(last) {
                return *v;
            }
        }
        if is_const_ident(last) {
            return match suffix_unit(last) {
                Some(u) => Abs::Known(u),
                None => Abs::Unknown,
            };
        }
        Abs::Unknown
    }

    fn root_ident(e: &Expr) -> &str {
        match e {
            Expr::Path { segs, .. } => segs.last().map_or("expr", |s| s.as_str()),
            Expr::Field { name, .. } | Expr::Call { name, .. } => name,
            Expr::Unary(i)
            | Expr::TupleField(i)
            | Expr::Paren(i, _)
            | Expr::Cast(i)
            | Expr::Index { base: i, .. } => Self::root_ident(i),
            Expr::Binary(_, l, _, _) => Self::root_ident(l),
            _ => "expr",
        }
    }

    fn eval(&mut self, e: &Expr, env: &mut Env) -> Abs {
        if self.fuel == 0 {
            return Abs::Unknown;
        }
        self.fuel -= 1;
        match e {
            Expr::Lit { .. } => Abs::Lit,
            // Booleans, strings, macros, ranges, arrays, `if let`
            // scrutinees and `break` values carry no unit.
            Expr::Opaque
            | Expr::Str { .. }
            | Expr::Not(_)
            | Expr::Macro { .. }
            | Expr::Range(..)
            | Expr::Array(..)
            | Expr::Let { .. }
            | Expr::Break(_)
            | Expr::Continue => Abs::Unknown,
            Expr::Path { segs, .. } => self.eval_path(segs, env),
            Expr::Field { base, name, .. } => {
                let _ = self.eval(base, env);
                self.field_abs(name)
            }
            Expr::Index { base: b, .. }
            | Expr::Unary(b)
            | Expr::TupleField(b)
            | Expr::Paren(b, _)
            | Expr::Cast(b) => self.eval(b, env),
            Expr::Tuple(xs, _) => {
                for x in xs {
                    let _ = self.eval(x, env);
                }
                Abs::Unknown
            }
            Expr::Binary(op, l, r, line) => self.eval_binary(*op, l, r, *line, env),
            Expr::Assign { target, op, value, line } => {
                self.eval_assign(target, *op, value, *line, env);
                Abs::Unknown
            }
            Expr::Call { recv, name, pos, line, args, .. } => {
                self.eval_call(recv.as_deref(), name, *pos, *line, args, env)
            }
            Expr::StructLit { path, inits, .. } => {
                let name = path.last().map_or("", String::as_str);
                for i in inits {
                    let va = self.eval(&i.value, env);
                    self.check_slot_write(&i.field, va, i.line, name);
                }
                Abs::Unknown
            }
            Expr::If { cond, then_b, else_b } => {
                let _ = self.eval(cond, env);
                let mut e1 = env.clone();
                let v1 = self.eval_block(then_b, &mut e1);
                match else_b {
                    Some(eb) => {
                        let mut e2 = env.clone();
                        let v2 = self.eval(eb, &mut e2);
                        *env = join_env(&e1, &e2);
                        v1.join(v2)
                    }
                    None => {
                        *env = join_env(env, &e1);
                        Abs::Unknown
                    }
                }
            }
            Expr::Match { scrutinee, arms, .. } => {
                let _ = self.eval(scrutinee, env);
                let mut acc_env: Option<Env> = None;
                let mut acc_val = Abs::Lit;
                for Arm { binds, body, .. } in arms {
                    let mut ei = env.clone();
                    for b in binds {
                        ei.insert(b.clone(), Abs::Unknown);
                    }
                    let vi = self.eval(body, &mut ei);
                    acc_val = acc_val.join(vi);
                    acc_env = Some(match acc_env {
                        Some(a) => join_env(&a, &ei),
                        None => ei,
                    });
                }
                if let Some(a) = acc_env {
                    *env = a;
                    acc_val
                } else {
                    Abs::Unknown
                }
            }
            Expr::BlockE(b) => self.eval_block(b, env),
            Expr::Loop(b) | Expr::While { body: b, .. } | Expr::For { body: b, .. } => {
                // Expression-position loop: stabilize silently, then one
                // visible pass (the CFG handles statement-position loops).
                if let Expr::While { cond, .. } = e {
                    let _ = self.eval(cond, env);
                }
                if let Expr::For { var, iter, .. } = e {
                    let it = self.eval(iter, env);
                    for v in var {
                        env.insert(v.clone(), it);
                    }
                }
                let was = self.emit;
                self.emit = false;
                for _ in 0..2 {
                    let mut et = env.clone();
                    let _ = self.eval_block(b, &mut et);
                    *env = join_env(env, &et);
                }
                self.emit = was;
                let mut et = env.clone();
                let _ = self.eval_block(b, &mut et);
                *env = join_env(env, &et);
                Abs::Unknown
            }
            Expr::Closure { params, body, .. } => {
                let mut ec = env.clone();
                for p in params {
                    let v = match suffix_unit(p) {
                        Some(u) => Abs::Known(u),
                        None => Abs::Unknown,
                    };
                    ec.insert(p.clone(), v);
                }
                let v = self.eval(body, &mut ec);
                // Effects on captured locals survive conservatively.
                *env = join_env(env, &ec);
                v
            }
            Expr::Ret(v, line) => {
                let a = match v {
                    Some(x) => self.eval(x, env),
                    None => Abs::Unknown,
                };
                self.check_return(v.as_deref(), a, *line);
                Abs::Unknown
            }
        }
    }

    fn eval_block(&mut self, b: &Block, env: &mut Env) -> Abs {
        for s in &b.stmts {
            match s {
                Stmt::Let { names, ty, init, line, .. } => {
                    self.do_let(names, ty, init.as_ref(), *line, env)
                }
                Stmt::Expr(e, _) => {
                    let _ = self.eval(e, env);
                }
                Stmt::Item(_) => {}
            }
        }
        match &b.tail {
            Some(t) => self.eval(t, env),
            None => Abs::Unknown,
        }
    }

    fn do_let(
        &mut self,
        names: &[String],
        ty: &str,
        init: Option<&Expr>,
        line: u32,
        env: &mut Env,
    ) {
        // Tuple destructuring with a literal tuple init binds pairwise.
        if names.len() > 1 {
            if let Some(Expr::Tuple(xs, _)) = init {
                if xs.len() == names.len() {
                    let xs = xs.clone();
                    for (n, x) in names.iter().zip(xs.iter()) {
                        let v = self.eval(x, env);
                        self.bind_one(n, "", Some(v), line, env);
                    }
                    return;
                }
            }
            if let Some(e) = init {
                let _ = self.eval(e, env);
            }
            for n in names {
                self.bind_one(n, "", None, line, env);
            }
            return;
        }
        let va = init.map(|e| self.eval(e, env));
        if let Some(n) = names.first() {
            self.bind_one(n, ty, va, line, env);
        }
    }

    /// Bind one pattern name: record its claim, check the initializer
    /// against it (Q01), and install the abstract value.
    fn bind_one(&mut self, name: &str, ty: &str, value: Option<Abs>, line: u32, env: &mut Env) {
        match slot_claim(name, ty) {
            Some((u, prov)) => {
                self.claims.insert(name.to_string(), (u, prov));
                self.check_claim(line, name, u, value.unwrap_or(Abs::Unknown));
                env.insert(name.to_string(), Abs::Known(u));
            }
            None => {
                env.insert(name.to_string(), value.unwrap_or(Abs::Unknown));
            }
        }
    }

    fn eval_binary(&mut self, op: BinOp, l: &Expr, r: &Expr, line: u32, env: &mut Env) -> Abs {
        let la = self.eval(l, env);
        let ra = self.eval(r, env);
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Rem | BinOp::Cmp => {
                self.check_mix(line, Self::root_ident(l), la, op.sym(), ra);
                if op == BinOp::Cmp {
                    Abs::Unknown
                } else {
                    la.join(ra)
                }
            }
            BinOp::Mul => match (la, ra) {
                (Abs::Lit, x) | (x, Abs::Lit) => x,
                (Abs::Known(Unit::Ratio), x) | (x, Abs::Known(Unit::Ratio)) => x,
                _ => Abs::Unknown,
            },
            BinOp::Div => match (la, ra) {
                (x, Abs::Lit) => x,
                (Abs::Known(a), Abs::Known(b)) if a == b => Abs::Known(Unit::Ratio),
                (x, Abs::Known(Unit::Ratio)) => x,
                _ => Abs::Unknown,
            },
            BinOp::Other => Abs::Unknown,
        }
    }

    /// A write into a *named* slot (field assignment or struct-literal
    /// init): type-backed claims are Q01, pub suffix-backed claims Q03.
    fn check_slot_write(&mut self, fname: &str, value: Abs, line: u32, owner: &str) {
        let Some(c) = self.field_claim(fname) else { return };
        let Some(v) = value.known() else { return };
        if v == c.unit {
            return;
        }
        let (v, u) = (v.name(), c.unit.name());
        match c.prov {
            Prov::Type => self.push(
                "Q01",
                line,
                fname,
                format!("write of {v} into {u}-typed field `{fname}` (in `{owner}`)"),
            ),
            Prov::Suffix if c.is_pub => {
                self.push(
                    "Q03",
                    line,
                    fname,
                    format!("write of {v} into `{fname}` — the name claims {u}"),
                );
            }
            Prov::Suffix => {}
        }
    }

    fn eval_assign(
        &mut self,
        target: &Expr,
        op: Option<BinOp>,
        value: &Expr,
        line: u32,
        env: &mut Env,
    ) {
        let va = self.eval(value, env);
        match target {
            Expr::Path { segs, .. } if segs.len() == 1 => {
                let name = &segs[0];
                let cur = env.get(name).copied().unwrap_or(Abs::Unknown);
                if let Some(bop) = op {
                    // compound: desugars to `x = x op v`
                    self.check_compound(line, name, cur, bop, va);
                    env.insert(name.clone(), cur.join(va));
                    return;
                }
                match self.claims.get(name.as_str()).copied() {
                    Some((u, _prov)) => {
                        self.check_claim(line, name, u, va);
                        env.insert(name.clone(), Abs::Known(u));
                    }
                    None => {
                        env.insert(name.clone(), va);
                    }
                }
            }
            Expr::Field { base, name: fname, .. } => {
                let _ = self.eval(base, env);
                if let Some(bop) = op {
                    let cur = self.field_abs(fname);
                    self.check_compound(line, fname, cur, bop, va);
                    return;
                }
                self.check_slot_write(fname, va, line, "assignment");
            }
            other => {
                let _ = self.eval(other, env);
            }
        }
    }

    fn eval_call(
        &mut self,
        recv: Option<&Expr>,
        name: &str,
        pos: usize,
        line: u32,
        args: &[Expr],
        env: &mut Env,
    ) -> Abs {
        let ra = recv.map(|r| self.eval(r, env));
        let vals: Vec<Abs> = args.iter().map(|a| self.eval(a, env)).collect();

        // Resolve: the resolver's call-site edge first, then the
        // globally-unique-name fallback.
        let fq = self
            .callmap
            .get(&pos)
            .cloned()
            .or_else(|| self.idx.by_name.get(name).cloned().flatten());
        if let Some(sum) = fq.as_deref().and_then(|f| self.sums.get(f)) {
            for (i, (pname, claim)) in sum.params.iter().enumerate() {
                let (Some((u, prov)), Some(v)) = (claim, vals.get(i).copied().and_then(Abs::known))
                else {
                    continue;
                };
                if v == *u {
                    continue;
                }
                let (u, v) = (u.name(), v.name());
                match prov {
                    Prov::Type => {
                        let msg = format!("argument `{pname}` of `{name}` is {u}-typed, got {v}");
                        self.push("Q01", line, name, msg);
                    }
                    Prov::Suffix if sum.is_pub => {
                        let msg = format!("argument `{pname}` of `{name}` claims {u}, got {v}");
                        self.push("Q03", line, name, msg);
                    }
                    Prov::Suffix => {}
                }
            }
            return sum.ret;
        }

        // Unresolved method in the preserve set: unit flows through (and
        // mixing receiver/arg units is still Q01).
        if recv.is_some() && PRESERVE_METHODS.contains(&name) {
            let mut acc = ra.unwrap_or(Abs::Unknown);
            for v in &vals {
                self.check_mix(line, name, acc, &format!(".{name}()"), *v);
                acc = acc.join(*v);
            }
            return acc;
        }

        // Externally-defined fn: its name suffix is still ground truth
        // (`Duration::as_nanos`).
        match suffix_unit(name) {
            Some(u) => Abs::Known(u),
            None => Abs::Unknown,
        }
    }

    fn check_return(&mut self, src: Option<&Expr>, value: Abs, line: u32) {
        self.ret_acc = self.ret_acc.join(value);
        let (Some((u, _prov)), Some(v)) = (self.ret_claim, value.known()) else { return };
        if v != u {
            let ident = src.map_or("return", Self::root_ident).to_string();
            let fname = self.fn_name.clone();
            self.push(
                "Q01",
                line,
                &ident,
                format!("`{}` returns {} but claims {}", fname, v.name(), u.name()),
            );
        }
    }

    /// Worklist fixpoint over the fn's CFG, then (when `emit_pass`) one
    /// visible pass over the stable entry environments — findings are
    /// only ever reported from stable states, so a transient `Known` in
    /// an unconverged loop can't invent one.
    fn run(&mut self, cfg: &Cfg<'_>, entry: Env, emit_pass: bool) {
        let n = cfg.blocks.len();
        let mut inenv: Vec<Option<Env>> = vec![None; n];
        inenv[0] = Some(entry);
        let mut work = vec![0usize];
        let mut steps = 0u32;
        self.emit = false;
        while let Some(b) = work.pop() {
            steps += 1;
            if steps > 4_000 {
                break;
            }
            let Some(mut env) = inenv[b].clone() else { continue };
            self.exec_block(&cfg.blocks[b], &mut env);
            for &s in &cfg.blocks[b].succs {
                let merged = match &inenv[s] {
                    Some(old) => join_env(old, &env),
                    None => env.clone(),
                };
                if inenv[s].as_ref() != Some(&merged) {
                    inenv[s] = Some(merged);
                    if !work.contains(&s) {
                        work.push(s);
                    }
                }
            }
        }
        if emit_pass {
            self.emit = true;
            for (b, entry_env) in inenv.iter().enumerate() {
                if let Some(env0) = entry_env {
                    let mut env = env0.clone();
                    self.exec_block(&cfg.blocks[b], &mut env);
                }
            }
            self.emit = false;
        }
    }

    fn exec_block(&mut self, b: &CfgBlock<'_>, env: &mut Env) {
        for s in &b.stmts {
            match *s {
                CStmt::Let { names, ty, init, line } => self.do_let(names, ty, init, line, env),
                CStmt::Eval(e) => {
                    let _ = self.eval(e, env);
                }
                CStmt::Ret(v, line) => {
                    let a = v.map_or(Abs::Unknown, |x| self.eval(x, env));
                    self.check_return(v, a, line);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Entry: Q01/Q02/Q03 over a workspace
// ---------------------------------------------------------------------------

/// The three unit rules' findings, split by rule.
#[derive(Debug, Default)]
pub struct UnitFindings {
    pub q01: Vec<Finding>,
    pub q02: Vec<Finding>,
    pub q03: Vec<Finding>,
}

/// Interpret `f` to a fixpoint from the entry environment its parameter
/// claims give; `emit_pass` adds the visible pass that records findings.
fn interp<'x>(
    idx: &'x UnitIndex,
    sums: &'x BTreeMap<String, FnSummary>,
    f: &'x FnUnit<'x>,
    emit_pass: bool,
) -> Interp<'x> {
    let claims = f.params.iter().filter_map(|(n, c)| c.map(|c| (n.clone(), c))).collect();
    let env = f
        .params
        .iter()
        .map(|(n, c)| (n.clone(), c.map_or(Abs::Unknown, |(u, _)| Abs::Known(u))))
        .collect();
    let mut it = Interp {
        idx,
        sums,
        callmap: &f.callmap,
        claims,
        ret_claim: f.ret_claim,
        fn_name: f.sym.name.clone(),
        emit: false,
        out: BTreeSet::new(),
        ret_acc: Abs::Lit,
        fuel: 200_000,
    };
    it.run(&f.cfg, env, emit_pass);
    it
}

/// Run the unit dataflow over the whole workspace and return every
/// Q01/Q02/Q03 finding (deduped, sorted by path/line/rule).
pub fn check_units(ctxs: &[FileCtx], ws: &Workspace) -> UnitFindings {
    let (idx, fns, mut sums) = build_index(ctxs, ws);

    // Fixed-point summary inference: un-claimed returns start at `Lit`
    // and only grow (old ⊔ computed), so four rounds over the call graph
    // suffice and termination is structural.
    for _round in 0..4 {
        let mut changed = false;
        let mut updates = Vec::new();
        for f in &fns {
            if f.ret_claim.is_some() {
                continue;
            }
            let it = interp(&idx, &sums, f, false);
            let old = sums.get(&f.sym.fq).map_or(Abs::Unknown, |s| s.ret);
            let new = old.join(it.ret_acc);
            if new != old {
                updates.push((f.sym.fq.clone(), new));
                changed = true;
            }
        }
        for (fq, v) in updates {
            if let Some(s) = sums.get_mut(&fq) {
                s.ret = v;
            }
        }
        if !changed {
            break;
        }
    }

    // Emit pass: only in-scope, non-test bodies report.
    let mut all: Vec<Finding> = Vec::new();
    for f in &fns {
        let rel = f.rel;
        if f.sym.in_test || !in_unit_scope(rel) {
            continue;
        }
        let it = interp(&idx, &sums, f, true);
        for (id, line, ident, message) in it.out {
            all.push(Finding { id, path: rel.to_string(), line, ident, message });
        }
    }

    for ctx in ctxs {
        if in_unit_scope(ctx.rel) {
            all.extend(scan_q02(ctx, ws));
        }
    }

    all.sort_by(|a, b| {
        (&a.path, a.line, a.id, &a.ident, &a.message)
            .cmp(&(&b.path, b.line, b.id, &b.ident, &b.message))
    });
    all.dedup_by(|a, b| a.id == b.id && a.path == b.path && a.line == b.line && a.ident == b.ident);

    let mut out = UnitFindings::default();
    for f in all {
        match f.id {
            "Q01" => out.q01.push(f),
            "Q02" => out.q02.push(f),
            _ => out.q03.push(f),
        }
    }
    out
}

/// Q02 — token-level scan: any mention of a conversion const, or a bare
/// `2.4` literal adjacent to `*`/`/`, outside `time.rs` and outside test
/// fns / `use` lines. Token-level deliberately: it sees macro arguments
/// and const initializers the expression layer skips.
fn scan_q02(ctx: &FileCtx, ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    let test_spans: Vec<(usize, usize)> = ws
        .files
        .get(ctx.rel)
        .map(|f| f.fns.iter().filter(|s| s.in_test).filter_map(|s| s.body).collect())
        .unwrap_or_default();
    let in_test = |i: usize| test_spans.iter().any(|&(s, e)| i >= s && i <= e);

    let mut in_use = false;
    for (i, t) in ctx.code.iter().enumerate() {
        if t.text == "use" && t.kind == TokKind::Ident {
            in_use = true;
        } else if in_use {
            if t.text == ";" {
                in_use = false;
            }
            continue;
        }
        if in_test(i) {
            continue;
        }
        match t.kind {
            TokKind::Ident if CONVERSION_CONSTS.contains(&t.text.as_str()) => {
                out.push(Finding {
                    id: "Q02",
                    path: ctx.rel.to_string(),
                    line: t.line,
                    ident: t.text.clone(),
                    message: format!(
                        "cycles↔ns conversion outside time.rs: `{}` — use cycles_to_ns/ns_to_cycles",
                        t.text
                    ),
                });
            }
            TokKind::Num => {
                let lit = t.text.trim_end_matches("f64").trim_end_matches("f32").replace('_', "");
                if lit.parse::<f64>() == Ok(2.4) {
                    let prev = i.checked_sub(1).map(|j| ctx.code[j].text.as_str());
                    let next = ctx.code.get(i + 1).map(|t| t.text.as_str());
                    let adj = |s: Option<&str>| matches!(s, Some("*") | Some("/"));
                    if adj(prev) || adj(next) {
                        out.push(Finding {
                            id: "Q02",
                            path: ctx.rel.to_string(),
                            line: t.line,
                            ident: "2.4".to_string(),
                            message: "bare 2.4 cycles↔ns factor — use cycles_to_ns/ns_to_cycles"
                                .to_string(),
                        });
                    }
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileCtx;

    fn run_units(src: &str) -> UnitFindings {
        let ctxs = vec![FileCtx::new("crates/x/src/a.rs", src)];
        let ws = Workspace::from_ctxs(&ctxs);
        check_units(&ctxs, &ws)
    }

    #[test]
    fn lattice_join_is_commutative_with_lit_bottom_unknown_top() {
        let c = Abs::Known(Unit::Cycles);
        let n = Abs::Known(Unit::Nanos);
        assert_eq!(Abs::Lit.join(c), c);
        assert_eq!(c.join(Abs::Lit), c);
        assert_eq!(c.join(c), c);
        assert_eq!(c.join(n), Abs::Unknown);
        assert_eq!(Abs::Unknown.join(c), Abs::Unknown);
    }

    #[test]
    fn suffix_seeding_rejects_per_rates() {
        assert_eq!(suffix_unit("lat_ns"), Some(Unit::Nanos));
        assert_eq!(suffix_unit("elapsed_cycles"), Some(Unit::Cycles));
        assert_eq!(suffix_unit("cycles"), Some(Unit::Cycles));
        assert_eq!(suffix_unit("line_bytes"), Some(Unit::Bytes));
        assert_eq!(suffix_unit("retired_instrs"), Some(Unit::Instructions));
        assert_eq!(suffix_unit("hit_ratio"), Some(Unit::Ratio));
        assert_eq!(suffix_unit("bytes_per_cycle"), None);
        assert_eq!(suffix_unit("NS_PER_CYCLE"), None);
        assert_eq!(suffix_unit("latency"), None);
    }

    #[test]
    fn q01_fires_on_mixed_addition() {
        let u = run_units(
            "pub fn f(a_cycles: u64, b_ns: f64) -> f64 {\n    let total_ns = a_cycles as f64 + b_ns;\n    total_ns\n}\n",
        );
        assert_eq!(u.q01.len(), 1, "{:?}", u.q01);
        assert!(u.q01[0].message.contains("cycles + ns"), "{}", u.q01[0].message);
    }

    #[test]
    fn q01_fires_on_cross_unit_return_and_let() {
        let u =
            run_units("pub fn busy_ns(c: Cycle) -> f64 {\n    let v_ns = c as f64;\n    v_ns\n}\n");
        // `let v_ns = c` is the one mix; the return then carries the
        // claimed (not actual) unit, so it reports once, at the source.
        assert_eq!(u.q01.len(), 1, "{:?}", u.q01);
        assert!(u.q01[0].message.contains("assignment of cycles"), "{}", u.q01[0].message);
    }

    #[test]
    fn q02_fires_on_bare_factor_and_const_mention() {
        let u = run_units(
            "pub fn f(c: u64) -> f64 { c as f64 * 2.4 }\npub fn g(c: u64) -> f64 { c as f64 * NS_PER_CYCLE }\n",
        );
        assert_eq!(u.q02.len(), 2, "{:?}", u.q02);
    }

    #[test]
    fn q02_is_silent_in_time_rs_and_tests() {
        let src = "pub fn f(c: u64) -> f64 { c as f64 * 2.4 }\n";
        let at = |rel| {
            let ctxs = vec![FileCtx::new(rel, src)];
            check_units(&ctxs, &Workspace::from_ctxs(&ctxs)).q02
        };
        assert!(at("crates/telemetry/src/time.rs").is_empty());
        // Only the one clock module is blessed, not every `time.rs`.
        assert_eq!(at("crates/cache/src/time.rs").len(), 1);
        let test_src =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = 3.0 * 2.4; }\n}\n";
        let u2 = run_units(test_src);
        assert!(u2.q02.is_empty(), "{:?}", u2.q02);
    }

    #[test]
    fn q03_fires_on_lying_pub_field_write() {
        let u = run_units(
            "pub struct S {\n    pub lat_ns: f64,\n}\npub fn f(s: &mut S, c_cycles: u64) {\n    s.lat_ns = c_cycles as f64;\n}\n",
        );
        assert_eq!(u.q03.len(), 1, "{:?}", u.q03);
        assert!(u.q03[0].message.contains("claims ns"), "{}", u.q03[0].message);
    }

    #[test]
    fn unknown_hides_not_invents() {
        let u = run_units(
            "pub fn f(a_cycles: u64) -> u64 {\n    let x = mystery();\n    x + a_cycles\n}\n",
        );
        assert!(u.q01.is_empty() && u.q03.is_empty(), "{:?} {:?}", u.q01, u.q03);
    }

    #[test]
    fn literals_are_chameleons() {
        let u = run_units(
            "pub fn f(dur_cycles: u64) -> u64 {\n    let d = dur_cycles.max(1);\n    d + 3\n}\n",
        );
        assert!(u.q01.is_empty(), "{:?}", u.q01);
    }

    #[test]
    fn summaries_flow_units_across_calls() {
        let u = run_units(
            "fn total_cycles(a: u64) -> u64 { a }\npub fn f(b_ns: f64) -> f64 {\n    b_ns + total_cycles(3) as f64\n}\n",
        );
        assert_eq!(u.q01.len(), 1, "{:?}", u.q01);
        assert!(u.q01[0].message.contains("ns + cycles"), "{}", u.q01[0].message);
    }

    #[test]
    fn blessed_conversion_launders_units() {
        // The conversion lives where the real one does: in the clock
        // module, whose own body (cycles in, ns out) the rules exempt.
        let ctxs = vec![
            FileCtx::new(
                "crates/x/src/a.rs",
                "pub fn f(c_cycles: u64) -> f64 {\n    let v_ns = cycles_to_ns(c_cycles);\n    v_ns\n}\n",
            ),
            FileCtx::new(
                "crates/telemetry/src/time.rs",
                "pub fn cycles_to_ns(cycles: u64) -> f64 { cycles as f64 }\n",
            ),
        ];
        let u = check_units(&ctxs, &Workspace::from_ctxs(&ctxs));
        assert!(u.q01.is_empty(), "{:?}", u.q01);
    }

    #[test]
    fn loop_carried_state_converges_without_inventing() {
        let u = run_units(
            "pub fn f(n: u64, step_cycles: u64) -> u64 {\n    let mut acc = 0;\n    let mut i = 0;\n    while i < n {\n        acc += step_cycles;\n        i += 1;\n    }\n    acc\n}\n",
        );
        assert!(u.q01.is_empty(), "{:?}", u.q01);
    }

    #[test]
    fn q01_fires_on_mixed_comparison() {
        let u = run_units(
            "pub fn f(a_cycles: u64, deadline_ns: u64) -> bool {\n    a_cycles > deadline_ns\n}\n",
        );
        assert_eq!(u.q01.len(), 1, "{:?}", u.q01);
    }
}
