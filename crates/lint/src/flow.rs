//! Unit-of-measure dataflow: expression trees, a statement-level CFG, and
//! an abstract interpreter over a unit lattice.
//!
//! This is the last rung of the static-analysis ladder (lexer → item
//! parser → symbol graph → resolved paths → **dataflow**). Fn bodies that
//! [`crate::parser`] left as raw token spans are lowered here into
//! expression trees and a statement-level control-flow graph, and a
//! worklist fixpoint propagates an abstract *unit* per local through
//! arithmetic, field reads/writes, calls, and returns.
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

use crate::lexer::{Tok, TokKind};
use crate::parser::{FnDef, Item, ItemKind};
use crate::rules::FileCtx;
use crate::symbols::Workspace;
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
// Expression trees
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    /// `<` `<=` `>` `>=` `==` `!=` — comparing mixed units is as wrong as
    /// adding them.
    Cmp,
    /// Shifts, bitops, `&&`/`||`, ranges — unit-destroying.
    Other,
}

impl BinOp {
    fn sym(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Cmp => "<cmp>",
            BinOp::Other => "<op>",
        }
    }
}

#[derive(Debug, Clone)]
enum Expr {
    /// Numeric literal — the lattice bottom.
    Lit,
    /// A (possibly `::`-qualified) path; `line` of its last segment.
    Path(Vec<String>, u32),
    Field(Box<Expr>, String, u32),
    Index(Box<Expr>),
    Call {
        /// Method receiver (`None` for free calls).
        recv: Option<Box<Expr>>,
        name: String,
        /// Code-token index of the callee ident — the resolver's
        /// `CallSite::pos` key.
        pos: usize,
        line: u32,
        args: Vec<Expr>,
    },
    /// `-x`, `&x`, `*x`, `x?` — unit-preserving.
    Unary(Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>, u32),
    Assign {
        target: Box<Expr>,
        /// `Some(op)` for compound (`+=` …) assignment.
        op: Option<BinOp>,
        value: Box<Expr>,
        line: u32,
    },
    /// `x as T` — numeric casts preserve the unit.
    Cast(Box<Expr>),
    StructLit {
        name: String,
        /// `(field, value, line)` per initializer; `..base` is dropped.
        inits: Vec<(String, Expr, u32)>,
    },
    Tuple(Vec<Expr>),
    If {
        cond: Box<Expr>,
        then_b: Block,
        else_b: Option<Box<Expr>>,
    },
    Match {
        scrutinee: Box<Expr>,
        /// `(bound idents, arm body)` — pattern binds go in Unknown.
        arms: Vec<(Vec<String>, Expr)>,
    },
    Loop(Block),
    While {
        cond: Box<Expr>,
        body: Block,
    },
    For {
        var: Vec<String>,
        iter: Box<Expr>,
        body: Block,
    },
    BlockE(Block),
    Closure {
        params: Vec<String>,
        body: Box<Expr>,
    },
    Ret(Option<Box<Expr>>, u32),
    Break,
    Continue,
    /// Anything we don't model (macros, parse bailouts, `[…]` literals,
    /// strings, bools). Evaluates to `Unknown` — hides, never invents.
    Opaque,
}

#[derive(Debug, Clone)]
struct Block {
    stmts: Vec<Stmt>,
    tail: Option<Box<Expr>>,
}

impl Block {
    fn empty() -> Self {
        Block { stmts: Vec::new(), tail: None }
    }
}

#[derive(Debug, Clone)]
enum Stmt {
    Let {
        /// Idents bound by the pattern.
        names: Vec<String>,
        /// Declared type text (space-joined), empty if none.
        ty: String,
        init: Option<Expr>,
        line: u32,
    },
    Expr(Expr),
}

// ---------------------------------------------------------------------------
// Expression parser (total: degrades to Opaque, never fails)
// ---------------------------------------------------------------------------

struct P<'a> {
    t: &'a [Tok],
    i: usize,
    end: usize,
    depth: u32,
}

const MAX_DEPTH: u32 = 64;

impl<'a> P<'a> {
    fn new(t: &'a [Tok], start: usize, end: usize) -> Self {
        P { t, i: start, end: end.min(t.len()), depth: 0 }
    }

    fn peek(&self, k: usize) -> Option<&Tok> {
        let j = self.i + k;
        if j < self.end {
            Some(&self.t[j])
        } else {
            None
        }
    }

    fn txt(&self, k: usize) -> &str {
        self.peek(k).map_or("", |t| t.text.as_str())
    }

    fn line(&self) -> u32 {
        self.peek(0).map_or(0, |t| t.line)
    }

    fn at(&self, s: &str) -> bool {
        self.txt(0) == s
    }

    fn at2(&self, a: &str, b: &str) -> bool {
        self.txt(0) == a && self.txt(1) == b
    }

    fn bump(&mut self) {
        self.i += 1;
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.at(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn is_ident(&self, k: usize) -> bool {
        self.peek(k).is_some_and(|t| t.kind == TokKind::Ident)
    }

    /// Skip a balanced `(…)`/`{…}`/`[…]` group, cursor on the opener.
    fn skip_group(&mut self) {
        let (open, close) = match self.txt(0) {
            "(" => ("(", ")"),
            "{" => ("{", "}"),
            "[" => ("[", "]"),
            _ => {
                self.bump();
                return;
            }
        };
        let mut d = 0usize;
        while self.i < self.end {
            let s = self.txt(0);
            if s == open {
                d += 1;
            } else if s == close {
                d -= 1;
                self.bump();
                if d == 0 {
                    return;
                }
                continue;
            }
            self.bump();
        }
    }

    /// Skip a turbofish / generic argument list, cursor on `<`.
    fn skip_angles(&mut self) {
        let mut d = 0usize;
        while self.i < self.end {
            match self.txt(0) {
                "<" => d += 1,
                ">" => {
                    d = d.saturating_sub(1);
                    if d == 0 {
                        self.bump();
                        return;
                    }
                }
                "(" | "{" | "[" => {
                    self.skip_group();
                    continue;
                }
                ";" => return,
                _ => {}
            }
            self.bump();
        }
    }

    /// Consume a type: path segments, generics, refs, tuples, fn-pointers.
    /// Returns the space-joined text. Stops at `=`, `;`, `,`, `)`, `{` at
    /// depth 0 (and `>` closing an enclosing angle context).
    fn take_type(&mut self) -> String {
        let mut out = Vec::new();
        let mut angle = 0i32;
        let mut paren = 0i32;
        while self.i < self.end {
            let s = self.txt(0);
            match s {
                "<" => angle += 1,
                ">" => {
                    if angle == 0 {
                        break;
                    }
                    angle -= 1;
                }
                "(" | "[" => paren += 1,
                ")" | "]" => {
                    if paren == 0 {
                        break;
                    }
                    paren -= 1;
                }
                // `&` stays (reference types); `+`/`-`/`*`/`/`/`.`/`?`
                // never start a type's tail at depth 0, so they end the
                // type and hand control back to the expression grammar
                // (`x as f64 + y`). Trait-object bounds (`dyn A + B`) and
                // fn-pointer types lose their tail — harmlessly.
                "=" | ";" | "{" | "," | "+" | "-" | "*" | "/" | "%" | "." | "?" | "|"
                    if angle == 0 && paren == 0 =>
                {
                    break;
                }
                _ => {}
            }
            out.push(s.to_string());
            self.bump();
        }
        out.join(" ")
    }

    /// Collect idents bound by a pattern, consuming up to (not including)
    /// the first `:` `=` `;` or `in` at depth 0. `_`, `mut`, `ref`,
    /// path-case constructors (`Some`, `Op::Read`) are not binders.
    fn take_pattern(&mut self) -> Vec<String> {
        let mut names = Vec::new();
        let mut d = 0i32;
        while self.i < self.end {
            let s = self.txt(0);
            match s {
                "(" | "[" | "{" => d += 1,
                ")" | "]" | "}" => {
                    if d == 0 {
                        break;
                    }
                    d -= 1;
                }
                ":" if d == 0 && self.txt(1) != ":" => break,
                "=" if d == 0 => break,
                ";" if d == 0 => break,
                "in" if d == 0 => break,
                "else" if d == 0 => break,
                _ => {
                    if self.peek(0).is_some_and(|t| t.kind == TokKind::Ident)
                        && s.chars().next().is_some_and(|c| c.is_ascii_lowercase() || c == '_')
                        && !matches!(s, "mut" | "ref" | "box" | "_")
                        && self.txt(1) != ":"
                    // not a path segment (`core::X`)
                    {
                        names.push(s.to_string());
                    }
                    if s == ":" && self.txt(1) == ":" {
                        self.bump(); // consume both colons of `::`
                    }
                }
            }
            self.bump();
        }
        names
    }
}

impl<'a> P<'a> {
    /// Parse the block whose `{` the cursor sits on. Always terminates:
    /// a malformed body degrades to Opaque statements, never a hang.
    fn block(&mut self) -> Block {
        let mut b = Block::empty();
        if !self.eat("{") {
            return b;
        }
        while self.i < self.end && !self.at("}") {
            let before = self.i;
            if self.eat(";") {
                continue;
            }
            match self.txt(0) {
                "let" => b.stmts.push(self.let_stmt()),
                "return" => {
                    self.bump();
                    let line = self.line();
                    let e = if self.at(";") || self.at("}") {
                        None
                    } else {
                        Some(Box::new(self.expr(true)))
                    };
                    b.stmts.push(Stmt::Expr(Expr::Ret(e, line)));
                    self.eat(";");
                }
                "break" => {
                    self.bump();
                    if !self.at(";") && !self.at("}") {
                        let _ = self.expr(true);
                    }
                    b.stmts.push(Stmt::Expr(Expr::Break));
                    self.eat(";");
                }
                "continue" => {
                    self.bump();
                    b.stmts.push(Stmt::Expr(Expr::Continue));
                    self.eat(";");
                }
                // Nested items: skip their tokens wholesale.
                "fn" | "struct" | "enum" | "impl" | "trait" | "mod" | "unsafe" => {
                    while self.i < self.end && !self.at("{") && !self.at(";") {
                        self.bump();
                    }
                    if self.at("{") {
                        self.skip_group();
                    } else {
                        self.eat(";");
                    }
                }
                "use" | "const" | "static" | "type" => {
                    while self.i < self.end && !self.at(";") {
                        if self.at("{") {
                            self.skip_group();
                            continue;
                        }
                        self.bump();
                    }
                    self.eat(";");
                }
                "#" => {
                    // attribute: `#` `[` … `]`
                    self.bump();
                    if self.at("[") {
                        self.skip_group();
                    }
                }
                _ => {
                    let e = self.expr(true);
                    if self.eat(";") {
                        b.stmts.push(Stmt::Expr(e));
                    } else if self.at("}") {
                        b.tail = Some(Box::new(e));
                    } else {
                        b.stmts.push(Stmt::Expr(e));
                    }
                }
            }
            if self.i == before {
                // No progress — drop the token, keep the pass total.
                self.bump();
            }
        }
        self.eat("}");
        b
    }

    fn let_stmt(&mut self) -> Stmt {
        let line = self.line();
        self.bump(); // `let`
        let names = self.take_pattern();
        let ty = if self.at(":") && self.txt(1) != ":" {
            self.bump();
            self.take_type()
        } else {
            String::new()
        };
        let init = if self.eat("=") { Some(self.expr(true)) } else { None };
        // let-else: parse (and discard) the diverging block.
        if self.at("else") {
            self.bump();
            if self.at("{") {
                let _ = self.block();
            }
        }
        self.eat(";");
        Stmt::Let { names, ty, init, line }
    }

    /// Full expression, lowest precedence (assignment / ranges).
    /// `allow_struct` is off inside `if`/`while`/`match`-head positions
    /// where `Foo {` would swallow the body.
    fn expr(&mut self, allow_struct: bool) -> Expr {
        if self.depth >= MAX_DEPTH {
            // Way past anything the tree contains; bail opaque.
            self.bump();
            return Expr::Opaque;
        }
        self.depth += 1;
        let e = self.assign_expr(allow_struct);
        self.depth -= 1;
        e
    }

    fn assign_expr(&mut self, allow_struct: bool) -> Expr {
        let lhs = self.range_expr(allow_struct);
        let line = self.line();
        // `=` (not `==` / `=>` / `<=`-style, those were consumed earlier)
        if self.at("=") && self.txt(1) != "=" && self.txt(1) != ">" {
            self.bump();
            let rhs = self.assign_expr(allow_struct);
            return Expr::Assign { target: Box::new(lhs), op: None, value: Box::new(rhs), line };
        }
        for (a, op) in [
            ("+", BinOp::Add),
            ("-", BinOp::Sub),
            ("*", BinOp::Mul),
            ("/", BinOp::Div),
            ("%", BinOp::Rem),
            ("|", BinOp::Other),
            ("&", BinOp::Other),
            ("^", BinOp::Other),
        ] {
            if self.at2(a, "=") && self.txt(2) != "=" {
                self.i += 2;
                let rhs = self.assign_expr(allow_struct);
                return Expr::Assign {
                    target: Box::new(lhs),
                    op: Some(op),
                    value: Box::new(rhs),
                    line,
                };
            }
        }
        lhs
    }

    fn range_expr(&mut self, allow_struct: bool) -> Expr {
        if self.at2(".", ".") {
            // prefix range `..n`
            self.i += 2;
            self.eat("=");
            if !self.at(")") && !self.at("]") && !self.at("{") && !self.at(",") {
                let _ = self.or_expr(allow_struct);
            }
            return Expr::Opaque;
        }
        let lhs = self.or_expr(allow_struct);
        if self.at2(".", ".") {
            self.i += 2;
            self.eat("=");
            if !self.at(")") && !self.at("]") && !self.at("{") && !self.at(",") && !self.at(";") {
                let _ = self.or_expr(allow_struct);
            }
            return Expr::Opaque;
        }
        lhs
    }

    fn or_expr(&mut self, allow_struct: bool) -> Expr {
        let mut lhs = self.and_expr(allow_struct);
        while self.at2("|", "|") && self.txt(2) != "=" {
            self.i += 2;
            let rhs = self.and_expr(allow_struct);
            lhs = Expr::Binary(BinOp::Other, Box::new(lhs), Box::new(rhs), self.line());
        }
        lhs
    }

    fn and_expr(&mut self, allow_struct: bool) -> Expr {
        let mut lhs = self.cmp_expr(allow_struct);
        while self.at2("&", "&") {
            self.i += 2;
            let rhs = self.cmp_expr(allow_struct);
            lhs = Expr::Binary(BinOp::Other, Box::new(lhs), Box::new(rhs), self.line());
        }
        lhs
    }

    /// Comparison (non-associative): `== != < <= > >=`.
    fn cmp_expr(&mut self, allow_struct: bool) -> Expr {
        let lhs = self.bitor_expr(allow_struct);
        let line = self.line();
        let is_cmp = (self.at2("=", "="))
            || (self.at2("!", "="))
            || (self.at("<") && self.txt(1) != "<")
            || (self.at(">") && self.txt(1) != ">");
        if is_cmp {
            if self.at2("=", "=") || self.at2("!", "=") {
                self.i += 2;
            } else {
                self.bump();
                self.eat("=");
            }
            let rhs = self.bitor_expr(allow_struct);
            return Expr::Binary(BinOp::Cmp, Box::new(lhs), Box::new(rhs), line);
        }
        lhs
    }

    fn bitor_expr(&mut self, allow_struct: bool) -> Expr {
        let mut lhs = self.addsub_expr(allow_struct);
        loop {
            let line = self.line();
            // single `|` `&` `^` and shifts — all unit-destroying
            if (self.at("|") && self.txt(1) != "|" && self.txt(1) != "=")
                || (self.at("&") && self.txt(1) != "&" && self.txt(1) != "=")
                || (self.at("^") && self.txt(1) != "=")
            {
                self.bump();
                let rhs = self.addsub_expr(allow_struct);
                lhs = Expr::Binary(BinOp::Other, Box::new(lhs), Box::new(rhs), line);
            } else if (self.at2("<", "<") || self.at2(">", ">")) && self.txt(2) != "=" {
                self.i += 2;
                let rhs = self.addsub_expr(allow_struct);
                lhs = Expr::Binary(BinOp::Other, Box::new(lhs), Box::new(rhs), line);
            } else {
                return lhs;
            }
        }
    }

    fn addsub_expr(&mut self, allow_struct: bool) -> Expr {
        let mut lhs = self.muldiv_expr(allow_struct);
        loop {
            let line = self.line();
            let op = if self.at("+") && self.txt(1) != "=" {
                BinOp::Add
            } else if self.at("-") && self.txt(1) != "=" && self.txt(1) != ">" {
                BinOp::Sub
            } else {
                return lhs;
            };
            self.bump();
            let rhs = self.muldiv_expr(allow_struct);
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), line);
        }
    }

    fn muldiv_expr(&mut self, allow_struct: bool) -> Expr {
        let mut lhs = self.cast_expr(allow_struct);
        loop {
            let line = self.line();
            let op = if self.at("*") && self.txt(1) != "=" {
                BinOp::Mul
            } else if self.at("/") && self.txt(1) != "=" {
                BinOp::Div
            } else if self.at("%") && self.txt(1) != "=" {
                BinOp::Rem
            } else {
                return lhs;
            };
            self.bump();
            let rhs = self.cast_expr(allow_struct);
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), line);
        }
    }

    fn cast_expr(&mut self, allow_struct: bool) -> Expr {
        let mut lhs = self.unary_expr(allow_struct);
        while self.at("as") {
            self.bump();
            let _ty = self.take_type();
            lhs = Expr::Cast(Box::new(lhs));
        }
        lhs
    }

    fn unary_expr(&mut self, allow_struct: bool) -> Expr {
        match self.txt(0) {
            "-" | "*" => {
                self.bump();
                Expr::Unary(Box::new(self.unary_expr(allow_struct)))
            }
            "&" => {
                self.bump();
                self.eat("&"); // `&&x` double-ref
                self.eat("mut");
                Expr::Unary(Box::new(self.unary_expr(allow_struct)))
            }
            "!" => {
                self.bump();
                let _ = self.unary_expr(allow_struct);
                Expr::Opaque // boolean
            }
            _ => self.postfix_expr(allow_struct),
        }
    }
}

impl<'a> P<'a> {
    fn postfix_expr(&mut self, allow_struct: bool) -> Expr {
        let mut e = self.primary_expr(allow_struct);
        loop {
            if self.at("?") {
                self.bump();
                e = Expr::Unary(Box::new(e));
            } else if self.at2(".", ".") {
                return e; // range — handled above us
            } else if self.at(".") {
                self.bump();
                if self.peek(0).is_some_and(|t| t.kind == TokKind::Num) {
                    // tuple index `.0`
                    self.bump();
                    e = Expr::Unary(Box::new(e));
                    continue;
                }
                let name = self.txt(0).to_string();
                let pos = self.i;
                let line = self.line();
                if !self.is_ident(0) {
                    continue;
                }
                self.bump();
                if self.at2(":", ":") {
                    // turbofish `.collect::<Vec<_>>()`
                    self.i += 2;
                    if self.at("<") {
                        self.skip_angles();
                    }
                }
                if self.at("(") {
                    let args = self.call_args();
                    e = Expr::Call { recv: Some(Box::new(e)), name, pos, line, args };
                } else {
                    e = Expr::Field(Box::new(e), name, line);
                }
            } else if self.at("(") {
                // call of a non-path callee (closure var, fn-typed field)
                let args = self.call_args();
                e = Expr::Call {
                    recv: Some(Box::new(e)),
                    name: String::new(),
                    pos: 0,
                    line: self.line(),
                    args,
                };
            } else if self.at("[") {
                let save_end = self.end;
                self.bump();
                // index expression runs to the matching `]`
                let _ = save_end;
                let idx_start = self.i;
                let mut d = 1usize;
                let mut j = self.i;
                while j < self.end && d > 0 {
                    match self.t[j].text.as_str() {
                        "[" => d += 1,
                        "]" => d -= 1,
                        _ => {}
                    }
                    if d == 0 {
                        break;
                    }
                    j += 1;
                }
                let mut inner = P { t: self.t, i: idx_start, end: j, depth: self.depth };
                let _ = inner.expr(true);
                self.i = j;
                self.eat("]");
                e = Expr::Index(Box::new(e));
            } else {
                return e;
            }
        }
    }

    /// Comma-separated argument list; cursor on `(`.
    fn call_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        if !self.eat("(") {
            return args;
        }
        while self.i < self.end && !self.at(")") {
            let before = self.i;
            args.push(self.expr(true));
            if !self.eat(",") && !self.at(")") {
                // lost sync inside the arg list: skip to `,` or `)`
                while self.i < self.end {
                    match self.txt(0) {
                        "(" | "[" | "{" => {
                            self.skip_group();
                            continue;
                        }
                        ")" => break,
                        "," => {
                            self.bump();
                            break;
                        }
                        _ => self.bump(),
                    }
                }
            }
            if self.i == before {
                self.bump();
            }
        }
        self.eat(")");
        args
    }

    fn primary_expr(&mut self, allow_struct: bool) -> Expr {
        let Some(t) = self.peek(0) else { return Expr::Opaque };
        match t.kind {
            TokKind::Num => {
                self.bump();
                return Expr::Lit;
            }
            TokKind::Str | TokKind::Lifetime | TokKind::Comment => {
                self.bump();
                return Expr::Opaque;
            }
            _ => {}
        }
        match self.txt(0) {
            "(" => {
                self.bump();
                let mut items = Vec::new();
                while self.i < self.end && !self.at(")") {
                    let before = self.i;
                    items.push(self.expr(true));
                    self.eat(",");
                    if self.i == before {
                        self.bump();
                    }
                }
                self.eat(")");
                if items.len() == 1 {
                    items.pop().unwrap()
                } else {
                    Expr::Tuple(items)
                }
            }
            "[" => {
                self.skip_group();
                Expr::Opaque
            }
            "{" => Expr::BlockE(self.block()),
            "if" => self.if_expr(),
            "match" => self.match_expr(),
            "loop" => {
                self.bump();
                Expr::Loop(self.block())
            }
            "while" => {
                self.bump();
                let cond = if self.at("let") {
                    self.bump();
                    let _ = self.take_pattern();
                    self.eat("=");
                    let _ = self.expr(false);
                    Expr::Opaque
                } else {
                    self.expr(false)
                };
                Expr::While { cond: Box::new(cond), body: self.block() }
            }
            "for" => {
                self.bump();
                let var = self.take_pattern();
                self.eat("in");
                let iter = self.expr(false);
                Expr::For { var, iter: Box::new(iter), body: self.block() }
            }
            "return" => {
                self.bump();
                let line = self.line();
                let e = if self.at(";") || self.at("}") || self.at(")") || self.at(",") {
                    None
                } else {
                    Some(Box::new(self.expr(true)))
                };
                Expr::Ret(e, line)
            }
            "break" => {
                self.bump();
                if !self.at(";") && !self.at("}") && !self.at(")") {
                    let _ = self.expr(true);
                }
                Expr::Break
            }
            "continue" => {
                self.bump();
                Expr::Continue
            }
            "move" => {
                self.bump();
                self.closure_expr()
            }
            "|" => self.closure_expr(),
            "true" | "false" => {
                self.bump();
                Expr::Opaque
            }
            "self" => {
                let line = self.line();
                self.bump();
                Expr::Path(vec!["self".to_string()], line)
            }
            _ if t.kind == TokKind::Ident => self.path_expr(allow_struct),
            _ => {
                self.bump();
                Expr::Opaque
            }
        }
    }

    fn if_expr(&mut self) -> Expr {
        self.bump(); // `if`
        let cond = if self.at("let") {
            self.bump();
            let _binds = self.take_pattern();
            self.eat("=");
            let _ = self.expr(false);
            Expr::Opaque
        } else {
            self.expr(false)
        };
        let then_b = self.block();
        let else_b = if self.eat("else") {
            if self.at("if") {
                Some(Box::new(self.if_expr()))
            } else {
                Some(Box::new(Expr::BlockE(self.block())))
            }
        } else {
            None
        };
        Expr::If { cond: Box::new(cond), then_b, else_b }
    }

    fn match_expr(&mut self) -> Expr {
        self.bump(); // `match`
        let scrutinee = self.expr(false);
        let mut arms = Vec::new();
        if !self.eat("{") {
            return Expr::Match { scrutinee: Box::new(scrutinee), arms };
        }
        while self.i < self.end && !self.at("}") {
            let before = self.i;
            // pattern: everything to `=>` at depth 0 (guards included)
            let mut binds = Vec::new();
            let mut d = 0i32;
            while self.i < self.end {
                let s = self.txt(0);
                match s {
                    "(" | "[" | "{" => d += 1,
                    ")" | "]" | "}" => d -= 1,
                    "=" if d == 0 && self.txt(1) == ">" => {
                        self.i += 2;
                        break;
                    }
                    _ => {
                        if self.peek(0).is_some_and(|t| t.kind == TokKind::Ident)
                            && s.chars().next().is_some_and(|c| c.is_ascii_lowercase() || c == '_')
                            && !matches!(s, "mut" | "ref" | "box" | "_" | "if")
                            && self.txt(1) != ":"
                        {
                            binds.push(s.to_string());
                        }
                    }
                }
                self.bump();
            }
            let body = if self.at("{") { Expr::BlockE(self.block()) } else { self.expr(true) };
            arms.push((binds, body));
            self.eat(",");
            if self.i == before {
                self.bump();
            }
        }
        self.eat("}");
        Expr::Match { scrutinee: Box::new(scrutinee), arms }
    }

    fn closure_expr(&mut self) -> Expr {
        let mut params = Vec::new();
        if self.at2("|", "|") {
            self.i += 2;
        } else if self.eat("|") {
            while self.i < self.end && !self.at("|") {
                let before = self.i;
                params.extend(self.take_pattern());
                if self.at(":") && self.txt(1) != ":" {
                    self.bump();
                    let _ = self.take_type();
                }
                self.eat(",");
                if self.i == before {
                    self.bump();
                }
            }
            self.eat("|");
        }
        if self.at2("-", ">") {
            self.i += 2;
            let _ = self.take_type();
        }
        let body = if self.at("{") { Expr::BlockE(self.block()) } else { self.expr(true) };
        Expr::Closure { params, body: Box::new(body) }
    }

    /// A path expression (possibly a call or struct literal).
    fn path_expr(&mut self, allow_struct: bool) -> Expr {
        let mut segs = vec![self.txt(0).to_string()];
        let mut last_pos = self.i;
        let line = self.line();
        self.bump();
        // macro invocation: `name ! ( … )`
        if self.at("!") && (self.txt(1) == "(" || self.txt(1) == "[" || self.txt(1) == "{") {
            self.bump();
            self.skip_group();
            return Expr::Opaque;
        }
        loop {
            if self.at2(":", ":") {
                self.i += 2;
                if self.at("<") {
                    self.skip_angles(); // turbofish
                    continue;
                }
                if self.is_ident(0) {
                    segs.push(self.txt(0).to_string());
                    last_pos = self.i;
                    self.bump();
                    continue;
                }
            }
            break;
        }
        if self.at("(") {
            let args = self.call_args();
            let name = segs.last().cloned().unwrap_or_default();
            return Expr::Call { recv: None, name, pos: last_pos, line, args };
        }
        if self.at("{") && allow_struct && self.struct_lit_ahead() {
            return self.struct_lit(segs.last().cloned().unwrap_or_default());
        }
        Expr::Path(segs, line)
    }

    /// Lookahead: does the `{` under the cursor open a struct literal?
    /// Yes if the first tokens inside are `ident :` (not `::`), `..`, or
    /// an immediate `}` following a plausible path.
    fn struct_lit_ahead(&self) -> bool {
        if self.txt(1) == "}" {
            return true;
        }
        if self.txt(1) == "." && self.txt(2) == "." {
            return true;
        }
        self.peek(1).is_some_and(|t| t.kind == TokKind::Ident)
            && self.txt(2) == ":"
            && self.txt(3) != ":"
    }

    fn struct_lit(&mut self, name: String) -> Expr {
        let mut inits = Vec::new();
        self.eat("{");
        while self.i < self.end && !self.at("}") {
            let before = self.i;
            if self.at2(".", ".") {
                // `..base`
                self.i += 2;
                let _ = self.expr(true);
                break;
            }
            let fline = self.line();
            let fname = self.txt(0).to_string();
            if !self.is_ident(0) {
                self.bump();
                continue;
            }
            self.bump();
            let val = if self.at(":") && self.txt(1) != ":" {
                self.bump();
                self.expr(true)
            } else {
                // shorthand `Foo { bytes }`
                Expr::Path(vec![fname.clone()], fline)
            };
            inits.push((fname, val, fline));
            self.eat(",");
            if self.i == before {
                self.bump();
            }
        }
        self.eat("}");
        Expr::StructLit { name, inits }
    }
}

// ---------------------------------------------------------------------------
// Statement-level CFG
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CStmt {
    Let { names: Vec<String>, ty: String, init: Option<Expr>, line: u32 },
    Eval(Expr),
    Ret(Option<Expr>, u32),
}

#[derive(Debug, Default)]
struct CfgBlock {
    stmts: Vec<CStmt>,
    succs: Vec<usize>,
}

struct Cfg {
    blocks: Vec<CfgBlock>,
}

struct Builder {
    blocks: Vec<CfgBlock>,
    /// `(head, exit)` of each enclosing loop, for continue/break edges.
    loops: Vec<(usize, usize)>,
}

impl Builder {
    fn new_block(&mut self) -> usize {
        self.blocks.push(CfgBlock::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    fn lower_stmts(&mut self, stmts: &[Stmt], mut cur: usize) -> usize {
        for s in stmts {
            cur = match s {
                Stmt::Let { names, ty, init, line } => {
                    self.blocks[cur].stmts.push(CStmt::Let {
                        names: names.clone(),
                        ty: ty.clone(),
                        init: init.clone(),
                        line: *line,
                    });
                    cur
                }
                Stmt::Expr(e) => self.lower_expr_stmt(e, cur),
            };
        }
        cur
    }

    /// Lower a nested statement-position block; its tail is a plain eval.
    fn lower_block(&mut self, b: &Block, cur: usize) -> usize {
        let cur = self.lower_stmts(&b.stmts, cur);
        if let Some(t) = &b.tail {
            self.lower_expr_stmt(t, cur)
        } else {
            cur
        }
    }

    /// Statement-position control flow becomes CFG structure; everything
    /// else is a single `Eval`.
    fn lower_expr_stmt(&mut self, e: &Expr, cur: usize) -> usize {
        match e {
            Expr::If { cond, then_b, else_b } => {
                self.blocks[cur].stmts.push(CStmt::Eval((**cond).clone()));
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
                self.blocks[head].stmts.push(CStmt::Eval((**cond).clone()));
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
            Expr::For { var, iter, body } => {
                self.blocks[cur].stmts.push(CStmt::Eval((**iter).clone()));
                let head = self.new_block();
                self.edge(cur, head);
                let exit = self.new_block();
                self.edge(head, exit);
                let be = self.new_block();
                self.edge(head, be);
                // Bind the loop var to an element of the iterated value —
                // `Index` preserves the base unit, so iterating a
                // `Vec<Cycle>` binds Cycles.
                self.blocks[be].stmts.push(CStmt::Let {
                    names: var.clone(),
                    ty: String::new(),
                    init: Some(Expr::Index(iter.clone())),
                    line: 0,
                });
                self.loops.push((head, exit));
                let bx = self.lower_block(body, be);
                self.loops.pop();
                self.edge(bx, head);
                exit
            }
            Expr::Match { scrutinee, arms } => {
                self.blocks[cur].stmts.push(CStmt::Eval((**scrutinee).clone()));
                let join = self.new_block();
                if arms.is_empty() {
                    self.edge(cur, join);
                }
                for (binds, body) in arms {
                    let ae = self.new_block();
                    self.edge(cur, ae);
                    if !binds.is_empty() {
                        // pattern binds are Unknown (no init)
                        self.blocks[ae].stmts.push(CStmt::Let {
                            names: binds.clone(),
                            ty: String::new(),
                            init: None,
                            line: 0,
                        });
                    }
                    let ax = self.lower_expr_stmt(body, ae);
                    self.edge(ax, join);
                }
                join
            }
            Expr::Ret(v, line) => {
                self.blocks[cur].stmts.push(CStmt::Ret(v.as_deref().cloned(), *line));
                self.new_block() // unreachable continuation
            }
            Expr::Break => {
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
                self.blocks[cur].stmts.push(CStmt::Eval(other.clone()));
                cur
            }
        }
    }
}

/// Build the CFG of one fn body. The body's tail expression is the
/// implicit return.
fn build_cfg(body: &Block) -> Cfg {
    let mut b = Builder { blocks: vec![CfgBlock::default()], loops: Vec::new() };
    let end = b.lower_stmts(&body.stmts, 0);
    if let Some(t) = &body.tail {
        let line = expr_line(t);
        b.blocks[end].stmts.push(CStmt::Ret(Some((**t).clone()), line));
    }
    Cfg { blocks: b.blocks }
}

/// Best-effort source line of an expression, for finding anchors.
fn expr_line(e: &Expr) -> u32 {
    match e {
        Expr::Path(_, l) | Expr::Field(_, _, l) | Expr::Binary(_, _, _, l) => *l,
        Expr::Call { line, .. } | Expr::Assign { line, .. } => *line,
        Expr::Unary(i) | Expr::Cast(i) | Expr::Index(i) => expr_line(i),
        Expr::Ret(Some(i), l) => {
            let il = expr_line(i);
            if il != 0 {
                il
            } else {
                *l
            }
        }
        Expr::Ret(None, l) => *l,
        Expr::If { cond, .. } | Expr::While { cond, .. } => expr_line(cond),
        Expr::Match { scrutinee, .. } => expr_line(scrutinee),
        Expr::StructLit { inits, .. } => inits.first().map_or(0, |(_, _, l)| *l),
        Expr::Tuple(xs) => xs.first().map_or(0, expr_line),
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
struct FnUnit {
    ctx_idx: usize,
    name: String,
    fq: String,
    in_test: bool,
    cfg: Cfg,
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

/// Walk one file's item tree, pairing each parsed [`FnDef`] with its
/// [`crate::symbols::FnSym`] (matched on body start — both index the same
/// code-token vector) and lowering the body span to a CFG.
fn collect_fns(ctx_idx: usize, ctx: &FileCtx, ws: &Workspace, out: &mut Vec<FnUnit>) {
    let empty = Vec::new();
    let syms = ws.files.get(ctx.rel).map_or(&empty, |f| &f.fns);
    let by_pos: BTreeMap<usize, &crate::symbols::FnSym> =
        syms.iter().filter_map(|f| f.body.map(|b| (b.0, f))).collect();

    fn walk(
        items: &[Item],
        in_test: bool,
        ctx_idx: usize,
        ctx: &FileCtx,
        by_pos: &BTreeMap<usize, &crate::symbols::FnSym>,
        out: &mut Vec<FnUnit>,
    ) {
        for it in items {
            match &it.kind {
                ItemKind::Fn(fd) => {
                    if let Some(u) = lower_fn(it, fd, in_test, ctx_idx, ctx, by_pos) {
                        out.push(u);
                    }
                }
                ItemKind::Impl { items, .. } | ItemKind::Trait { items } => {
                    walk(items, in_test, ctx_idx, ctx, by_pos, out);
                }
                ItemKind::Mod { is_test, items } => {
                    walk(items, in_test || *is_test, ctx_idx, ctx, by_pos, out);
                }
                _ => {}
            }
        }
    }
    walk(&ctx.items, false, ctx_idx, ctx, &by_pos, out);
}

fn lower_fn(
    it: &Item,
    fd: &FnDef,
    in_test: bool,
    ctx_idx: usize,
    ctx: &FileCtx,
    by_pos: &BTreeMap<usize, &crate::symbols::FnSym>,
) -> Option<FnUnit> {
    let (open, close) = fd.body?;
    let sym = by_pos.get(&open);
    let mut p = P::new(&ctx.code, open, close + 1);
    let block = p.block();
    let cfg = build_cfg(&block);
    let params: Vec<(String, Option<(Unit, Prov)>)> = fd
        .params
        .iter()
        .zip(fd.param_tys.iter())
        .map(|(n, ty)| (n.clone(), slot_claim(n, ty)))
        .collect();
    let ret_claim = type_unit(&fd.ret)
        .map(|u| (u, Prov::Type))
        .or_else(|| suffix_unit(&it.name).map(|u| (u, Prov::Suffix)));
    let callmap = sym
        .map(|s| s.call_sites.iter().filter_map(|c| c.fq.clone().map(|fq| (c.pos, fq))).collect())
        .unwrap_or_default();
    Some(FnUnit {
        ctx_idx,
        name: it.name.clone(),
        fq: sym.map_or_else(|| it.name.clone(), |s| s.fq.clone()),
        in_test: in_test || sym.is_some_and(|s| s.in_test),
        cfg,
        callmap,
        params,
        ret_claim,
    })
}

/// Build the workspace unit model: field claims, lowered fns, and the
/// initial summary table (claimed returns `Known`, everything else `Lit`
/// pending inference).
fn build_index(
    ctxs: &[FileCtx],
    ws: &Workspace,
) -> (UnitIndex, Vec<FnUnit>, BTreeMap<String, FnSummary>) {
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

    let mut fns = Vec::new();
    for (i, ctx) in ctxs.iter().enumerate() {
        collect_fns(i, ctx, ws, &mut fns);
    }

    let mut sums: BTreeMap<String, FnSummary> = BTreeMap::new();
    let mut by_name: BTreeMap<String, Option<String>> = BTreeMap::new();
    let empty = Vec::new();
    let mut pubness: BTreeMap<&str, bool> = BTreeMap::new();
    for fsy in ws.files.values().flat_map(|f| f.fns.iter()).chain(empty.iter()) {
        pubness.insert(fsy.fq.as_str(), fsy.is_pub);
    }
    for f in &fns {
        let is_pub = pubness.get(f.fq.as_str()).copied().unwrap_or(false);
        sums.insert(
            f.fq.clone(),
            FnSummary {
                params: f.params.clone(),
                ret: match f.ret_claim {
                    Some((u, _)) => Abs::Known(u),
                    None => Abs::Lit,
                },
                is_pub,
            },
        );
        by_name
            .entry(f.name.clone())
            .and_modify(|e| {
                if e.as_deref() != Some(f.fq.as_str()) {
                    *e = None;
                }
            })
            .or_insert_with(|| Some(f.fq.clone()));
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
            Expr::Path(segs, _) => segs.last().map_or("expr", |s| s.as_str()),
            Expr::Field(_, name, _) => name,
            Expr::Call { name, .. } => name,
            Expr::Unary(i) | Expr::Cast(i) | Expr::Index(i) => Self::root_ident(i),
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
            Expr::Lit => Abs::Lit,
            Expr::Opaque | Expr::Break | Expr::Continue => Abs::Unknown,
            Expr::Path(segs, _) => self.eval_path(segs, env),
            Expr::Field(base, name, _) => {
                let _ = self.eval(base, env);
                self.field_abs(name)
            }
            Expr::Index(b) | Expr::Unary(b) | Expr::Cast(b) => self.eval(b, env),
            Expr::Tuple(xs) => {
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
            Expr::Call { recv, name, pos, line, args } => {
                self.eval_call(recv.as_deref(), name, *pos, *line, args, env)
            }
            Expr::StructLit { name, inits } => {
                for (fname, v, line) in inits {
                    let va = self.eval(v, env);
                    self.check_slot_write(fname, va, *line, name);
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
            Expr::Match { scrutinee, arms } => {
                let _ = self.eval(scrutinee, env);
                let mut acc_env: Option<Env> = None;
                let mut acc_val = Abs::Lit;
                for (binds, body) in arms {
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
            Expr::Closure { params, body } => {
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
                Stmt::Let { names, ty, init, line } => {
                    self.do_let(names, ty, init.as_ref(), *line, env)
                }
                Stmt::Expr(e) => {
                    let _ = self.eval(e, env);
                }
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
            if let Some(Expr::Tuple(xs)) = init {
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
                if let Some(v) = value.and_then(Abs::known) {
                    if v != u {
                        self.push(
                            "Q01",
                            line,
                            name,
                            format!(
                                "assignment of {} to {}-claimed `{}`",
                                v.name(),
                                u.name(),
                                name
                            ),
                        );
                    }
                }
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
                if let (Some(a), Some(b)) = (la.known(), ra.known()) {
                    if a != b {
                        self.push(
                            "Q01",
                            line,
                            Self::root_ident(l),
                            format!(
                                "mixed-unit arithmetic: {} {} {}",
                                a.name(),
                                op.sym(),
                                b.name()
                            ),
                        );
                    }
                }
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
        match c.prov {
            Prov::Type => self.push(
                "Q01",
                line,
                fname,
                format!(
                    "write of {} into {}-typed field `{}` (in `{}`)",
                    v.name(),
                    c.unit.name(),
                    fname,
                    owner
                ),
            ),
            Prov::Suffix if c.is_pub => self.push(
                "Q03",
                line,
                fname,
                format!(
                    "write of {} into `{}` — the name claims {}",
                    v.name(),
                    fname,
                    c.unit.name()
                ),
            ),
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
            Expr::Path(segs, _) if segs.len() == 1 => {
                let name = &segs[0];
                let cur = env.get(name).copied().unwrap_or(Abs::Unknown);
                if let Some(bop) = op {
                    // compound: desugars to `x = x op v`
                    if matches!(bop, BinOp::Add | BinOp::Sub | BinOp::Rem) {
                        if let (Some(a), Some(b)) = (cur.known(), va.known()) {
                            if a != b {
                                self.push(
                                    "Q01",
                                    line,
                                    name,
                                    format!(
                                        "mixed-unit arithmetic: {} {}= {}",
                                        a.name(),
                                        bop.sym(),
                                        b.name()
                                    ),
                                );
                            }
                        }
                    }
                    env.insert(name.clone(), cur.join(va));
                    return;
                }
                match self.claims.get(name.as_str()).copied() {
                    Some((u, _prov)) => {
                        if let Some(v) = va.known() {
                            if v != u {
                                self.push(
                                    "Q01",
                                    line,
                                    name,
                                    format!(
                                        "assignment of {} to {}-claimed `{}`",
                                        v.name(),
                                        u.name(),
                                        name
                                    ),
                                );
                            }
                        }
                        env.insert(name.clone(), Abs::Known(u));
                    }
                    None => {
                        env.insert(name.clone(), va);
                    }
                }
            }
            Expr::Field(base, fname, _) => {
                let _ = self.eval(base, env);
                if let Some(bop) = op {
                    if matches!(bop, BinOp::Add | BinOp::Sub | BinOp::Rem) {
                        let cur = self.field_abs(fname);
                        if let (Some(a), Some(b)) = (cur.known(), va.known()) {
                            if a != b {
                                self.push(
                                    "Q01",
                                    line,
                                    fname,
                                    format!(
                                        "mixed-unit arithmetic: {} {}= {}",
                                        a.name(),
                                        bop.sym(),
                                        b.name()
                                    ),
                                );
                            }
                        }
                    }
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
                match prov {
                    Prov::Type => self.push(
                        "Q01",
                        line,
                        name,
                        format!(
                            "argument `{}` of `{}` is {}-typed, got {}",
                            pname,
                            name,
                            u.name(),
                            v.name()
                        ),
                    ),
                    Prov::Suffix if sum.is_pub => self.push(
                        "Q03",
                        line,
                        name,
                        format!(
                            "argument `{}` of `{}` claims {}, got {}",
                            pname,
                            name,
                            u.name(),
                            v.name()
                        ),
                    ),
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
                if let (Some(a), Some(b)) = (acc.known(), v.known()) {
                    if a != b {
                        self.push(
                            "Q01",
                            line,
                            name,
                            format!("mixed-unit arithmetic: {} .{}() {}", a.name(), name, b.name()),
                        );
                    }
                }
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
    fn run(&mut self, cfg: &Cfg, entry: Env, emit_pass: bool) {
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

    fn exec_block(&mut self, b: &CfgBlock, env: &mut Env) {
        for s in &b.stmts {
            match s {
                CStmt::Let { names, ty, init, line } => {
                    self.do_let(names, ty, init.as_ref(), *line, env);
                }
                CStmt::Eval(e) => {
                    let _ = self.eval(e, env);
                }
                CStmt::Ret(v, line) => {
                    let a = match v {
                        Some(x) => self.eval(x, env),
                        None => Abs::Unknown,
                    };
                    self.check_return(v.as_ref(), a, *line);
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

fn entry_state(f: &FnUnit) -> (Env, BTreeMap<String, (Unit, Prov)>) {
    let mut env = Env::new();
    let mut claims = BTreeMap::new();
    for (name, claim) in &f.params {
        match claim {
            Some((u, prov)) => {
                claims.insert(name.clone(), (*u, *prov));
                env.insert(name.clone(), Abs::Known(*u));
            }
            None => {
                env.insert(name.clone(), Abs::Unknown);
            }
        }
    }
    (env, claims)
}

fn interp<'x>(
    idx: &'x UnitIndex,
    sums: &'x BTreeMap<String, FnSummary>,
    f: &'x FnUnit,
    claims: BTreeMap<String, (Unit, Prov)>,
) -> Interp<'x> {
    Interp {
        idx,
        sums,
        callmap: &f.callmap,
        claims,
        ret_claim: f.ret_claim,
        fn_name: f.name.clone(),
        emit: false,
        out: BTreeSet::new(),
        ret_acc: Abs::Lit,
        fuel: 200_000,
    }
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
            let (env, claims) = entry_state(f);
            let mut it = interp(&idx, &sums, f, claims);
            it.run(&f.cfg, env, false);
            let old = sums.get(&f.fq).map_or(Abs::Unknown, |s| s.ret);
            let new = old.join(it.ret_acc);
            if new != old {
                updates.push((f.fq.clone(), new));
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
        let rel = ctxs[f.ctx_idx].rel;
        if f.in_test || !in_unit_scope(rel) {
            continue;
        }
        let (env, claims) = entry_state(f);
        let mut it = interp(&idx, &sums, f, claims);
        it.run(&f.cfg, env, true);
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
        let u = run_units(
            "pub fn f(c_cycles: u64) -> f64 {\n    let v_ns = cycles_to_ns(c_cycles);\n    v_ns\n}\nfn cycles_to_ns(cycles: u64) -> f64 { cycles as f64 }\n",
        );
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
