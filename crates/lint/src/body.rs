//! The one parser of fn bodies: expression trees over the
//! [`crate::lexer`] code tokens.
//!
//! [`crate::rules::FileCtx::new`] parses every fn body exactly once with
//! [`parse_body`] and keeps the [`Block`] with the file. The symbol graph
//! ([`crate::symbols`]), the unit dataflow ([`crate::flow`]) and the Z01/E05
//! rules all read that one tree.
//!
//! The tree keeps what any reader needs: macro arguments, `if let`/`while
//! let` scrutinees, patterns, index expressions, ranges, array literals,
//! `break` values, nested item bodies and string literals, plus the code-
//! token positions of callee idents, field names, statement ends and block
//! closes (lock regions are token spans). Like the item parser it is total:
//! malformed or exotic syntax degrades into [`Expr::Opaque`] or skipped
//! tokens, never a panic, a hang or an unbounded recursion.

use crate::lexer::{Tok, TokKind};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    /// `<` `<=` `>` `>=` `==` `!=`.
    Cmp,
    /// Shifts, bitops, `&&`/`||`.
    Other,
}

impl BinOp {
    pub fn sym(self) -> &'static str {
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
pub enum Expr {
    /// Numeric literal; `zero` for exactly `0`.
    Lit {
        zero: bool,
    },
    /// String/char literal (token text, quotes included).
    Str {
        text: String,
        line: u32,
    },
    /// A (possibly `::`-qualified) path; `pos` is its last segment's token.
    Path {
        segs: Vec<String>,
        pos: usize,
        line: u32,
    },
    Field {
        base: Box<Expr>,
        name: String,
        line: u32,
    },
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
        end: usize,
    },
    Call {
        /// Method receiver, or the callee of a non-path call (`(f)(x)`).
        recv: Option<Box<Expr>>,
        /// Callee path for free calls (empty for method calls).
        path: Vec<String>,
        /// Callee name (empty for non-path callees).
        name: String,
        /// Code-token index of the callee ident.
        pos: usize,
        line: u32,
        args: Vec<Expr>,
        /// Token index of the closing `)`.
        end: usize,
    },
    /// `name!(…)`: the arguments parsed as comma/semicolon-separated exprs.
    Macro {
        args: Vec<Expr>,
        end: usize,
    },
    /// `-x`, `&x`, `*x`, `x?`.
    Unary(Box<Expr>),
    /// Tuple-field access `x.0`.
    TupleField(Box<Expr>),
    /// `!x`.
    Not(Box<Expr>),
    /// `(x)`.
    Paren(Box<Expr>, usize),
    Binary(BinOp, Box<Expr>, Box<Expr>, u32),
    Assign {
        target: Box<Expr>,
        /// `Some(op)` for compound (`+=` …) assignment.
        op: Option<BinOp>,
        value: Box<Expr>,
        line: u32,
    },
    /// `x as T`.
    Cast(Box<Expr>),
    StructLit {
        path: Vec<String>,
        inits: Vec<Init>,
        /// `..base` functional update.
        base: Option<Box<Expr>>,
        end: usize,
    },
    Tuple(Vec<Expr>, usize),
    Array(Vec<Expr>, usize),
    Range(Option<Box<Expr>>, Option<Box<Expr>>),
    /// `let pat = init` as an `if`/`while` condition.
    Let {
        pat: Vec<Expr>,
        init: Box<Expr>,
    },
    If {
        cond: Box<Expr>,
        then_b: Block,
        else_b: Option<Box<Expr>>,
    },
    Match {
        scrutinee: Box<Expr>,
        arms: Vec<Arm>,
        /// Token index of the closing `}`.
        end: usize,
    },
    Loop(Block),
    While {
        cond: Box<Expr>,
        body: Block,
    },
    For {
        var: Vec<String>,
        pat: Vec<Expr>,
        iter: Box<Expr>,
        body: Block,
    },
    BlockE(Block),
    Closure {
        params: Vec<String>,
        pat: Vec<Expr>,
        body: Box<Expr>,
    },
    Ret(Option<Box<Expr>>, u32),
    Break(Option<Box<Expr>>),
    Continue,
    /// `true`/`false`, lifetimes, and tokens the grammar does not model.
    Opaque,
}

/// One struct-literal field initializer.
#[derive(Debug, Clone)]
pub struct Init {
    pub field: String,
    pub value: Expr,
    pub line: u32,
}

/// One `match` arm.
#[derive(Debug, Clone)]
pub struct Arm {
    /// The pattern's top-level alternatives and sub-patterns, in order.
    pub pat: Vec<Expr>,
    pub guard: Option<Expr>,
    /// Lowercase idents of the pattern and guard (the unit dataflow binds
    /// them to Unknown).
    pub binds: Vec<String>,
    pub body: Expr,
}

#[derive(Debug, Clone)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub tail: Option<Box<Expr>>,
    /// Token index of the closing `}`.
    pub close: usize,
}

#[derive(Debug, Clone)]
pub enum Stmt {
    Let {
        pat: Vec<Expr>,
        /// Idents bound by the pattern.
        names: Vec<String>,
        /// Declared type text (space-joined), empty if none.
        ty: String,
        init: Option<Expr>,
        /// The diverging block of a let-else.
        else_b: Option<Block>,
        line: u32,
        /// Token index of the `;`.
        end: usize,
    },
    /// An expression statement and the token index where it ends (its `;`,
    /// or the token after a block-like expression).
    Expr(Expr, usize),
    /// A nested item: the bodies and initializers it contains.
    Item(Vec<Expr>),
}

/// Parse the fn body whose braces sit at `open`/`close` in `code`.
pub fn parse_body(code: &[Tok], open: usize, close: usize) -> Block {
    P { t: code, i: open, end: (close + 1).min(code.len()), depth: 0 }.block()
}

/// Index of the bracket closing the `(`/`[`/`{` at `t[open]`, searching
/// `t[..end]`; `end` when unbalanced.
pub fn group_end(t: &[Tok], open: usize, end: usize) -> usize {
    let (o, c) = match t.get(open).map_or("", |t| t.text.as_str()) {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        _ => ("{", "}"),
    };
    let mut depth = 0usize;
    for (j, tok) in t.iter().enumerate().take(end).skip(open) {
        if tok.text == o {
            depth += 1;
        } else if tok.text == c {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j;
            }
        }
    }
    end
}

impl Expr {
    /// Visit this expression and every sub-expression in source order.
    pub fn walk<'e>(&'e self, f: &mut dyn FnMut(&'e Expr)) {
        f(self);
        let each = |xs: &'e [Expr], f: &mut dyn FnMut(&'e Expr)| xs.iter().for_each(|x| x.walk(f));
        match self {
            Expr::Lit { .. }
            | Expr::Str { .. }
            | Expr::Path { .. }
            | Expr::Continue
            | Expr::Opaque => {}
            Expr::Field { base: x, .. }
            | Expr::Unary(x)
            | Expr::TupleField(x)
            | Expr::Not(x)
            | Expr::Paren(x, _)
            | Expr::Cast(x) => x.walk(f),
            Expr::Closure { pat, body, .. } => {
                each(pat, f);
                body.walk(f);
            }
            Expr::Index { base, index, .. } => {
                base.walk(f);
                index.walk(f);
            }
            Expr::Call { recv, args, .. } => {
                recv.iter().for_each(|r| r.walk(f));
                each(args, f);
            }
            Expr::Macro { args: xs, .. } | Expr::Tuple(xs, _) | Expr::Array(xs, _) => each(xs, f),
            Expr::Binary(_, l, r, _) | Expr::Assign { target: l, value: r, .. } => {
                l.walk(f);
                r.walk(f);
            }
            Expr::StructLit { inits, base, .. } => {
                inits.iter().for_each(|i| i.value.walk(f));
                base.iter().for_each(|b| b.walk(f));
            }
            Expr::Range(lo, hi) => {
                lo.iter().chain(hi).for_each(|x| x.walk(f));
            }
            Expr::Ret(v, _) | Expr::Break(v) => v.iter().for_each(|x| x.walk(f)),
            Expr::Let { pat, init } => {
                each(pat, f);
                init.walk(f);
            }
            Expr::If { cond, then_b, else_b } => {
                cond.walk(f);
                then_b.walk(f);
                else_b.iter().for_each(|e| e.walk(f));
            }
            Expr::Match { scrutinee, arms, .. } => {
                scrutinee.walk(f);
                for a in arms {
                    each(&a.pat, f);
                    a.guard.iter().chain([&a.body]).for_each(|x| x.walk(f));
                }
            }
            Expr::Loop(b) | Expr::BlockE(b) => b.walk(f),
            Expr::While { cond, body } => {
                cond.walk(f);
                body.walk(f);
            }
            Expr::For { pat, iter, body, .. } => {
                each(pat, f);
                iter.walk(f);
                body.walk(f);
            }
        }
    }
}

impl Block {
    /// Visit every expression of the block in source order.
    pub fn walk<'e>(&'e self, f: &mut dyn FnMut(&'e Expr)) {
        for s in &self.stmts {
            match s {
                Stmt::Let { pat, init, else_b, .. } => {
                    pat.iter().chain(init).for_each(|x| x.walk(f));
                    else_b.iter().for_each(|b| b.walk(f));
                }
                Stmt::Expr(e, _) => e.walk(f),
                Stmt::Item(xs) => xs.iter().for_each(|x| x.walk(f)),
            }
        }
        self.tail.iter().for_each(|t| t.walk(f));
    }
}

// ---------------------------------------------------------------------------
// Parser (total: degrades to Opaque, never fails)
// ---------------------------------------------------------------------------

struct P<'a> {
    t: &'a [Tok],
    i: usize,
    end: usize,
    depth: u32,
}

const MAX_DEPTH: u32 = 64;

/// Pattern idents that bind nothing.
const NON_BINDERS: &[&str] = &["mut", "ref", "box", "_"];

impl<'a> P<'a> {
    /// A parser over `[start, end)` at the current nesting depth.
    fn sub(&self, start: usize, end: usize) -> P<'a> {
        P { t: self.t, i: start, end: end.min(self.end), depth: self.depth }
    }

    fn peek(&self, k: usize) -> Option<&'a Tok> {
        let j = self.i + k;
        if j < self.end {
            Some(&self.t[j])
        } else {
            None
        }
    }

    fn txt(&self, k: usize) -> &'a str {
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

    fn group_end(&self) -> usize {
        group_end(self.t, self.i, self.end)
    }

    /// Skip a balanced `(…)`/`{…}`/`[…]` group, cursor on the opener.
    fn skip_group(&mut self) {
        if matches!(self.txt(0), "(" | "[" | "{") {
            self.i = self.group_end() + 1;
        } else {
            self.bump();
        }
    }

    /// The expressions of the `(…)`/`[…]`/`{…}` group under the cursor,
    /// separated by `,` (or `;`/`=>` in macros); returns them and the
    /// closer's index, cursor past the closer.
    fn group_items(&mut self) -> (Vec<Expr>, usize) {
        let close = self.group_end();
        let mut p = self.sub(self.i + 1, close);
        let mut items = Vec::new();
        while p.i < p.end {
            let before = p.i;
            items.push(p.expr(true));
            if !(p.eat(",") || p.eat(";") || p.eat2("=", ">")) && p.i == before {
                p.bump();
            }
        }
        self.i = close + 1;
        (items, close)
    }

    fn eat2(&mut self, a: &str, b: &str) -> bool {
        if self.at2(a, b) {
            self.i += 2;
            true
        } else {
            false
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
    /// Returns the space-joined text. Stops at `=`, `;`, `,`, `)`, `{`, `}`
    /// at depth 0 (and `>` closing an enclosing angle context).
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
                "=" | ";" | "{" | "}" | "," | "+" | "-" | "*" | "/" | "%" | "." | "?" | "|"
                    if angle == 0 && paren == 0 =>
                {
                    break;
                }
                _ => {}
            }
            out.push(s);
            self.bump();
        }
        out.join(" ")
    }

    /// End of a pattern starting at the cursor: the first `:` (not `::`),
    /// `=`, `;`, `in`, `else`, or unmatched closer at depth 0 — plus `,`/`|`
    /// when `in_list` (closure parameters) and `if`/`=>` when `in_arm`.
    fn pattern_end(&self, in_list: bool, in_arm: bool) -> usize {
        let mut d = 0i32;
        let mut j = self.i;
        while j < self.end {
            let s = self.t[j].text.as_str();
            let next = self.t.get(j + 1).map_or("", |t| t.text.as_str());
            match s {
                "(" | "[" | "{" => d += 1,
                ")" | "]" | "}" => {
                    if d == 0 {
                        break;
                    }
                    d -= 1;
                }
                ":" if d == 0 && next == ":" => j += 1,
                ":" | ";" | "in" | "else" if d == 0 && !in_arm => break,
                "=" if d == 0 && (!in_arm || next == ">") => break,
                "," | "|" if d == 0 && in_list => break,
                "if" if d == 0 && in_arm => break,
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Lowercase idents in `[start, end)` that are not path segments or
    /// field names (`x` in `Some(x)`, not `core` in `core::X`).
    fn binders(&self, start: usize, end: usize, skip: &[&str]) -> Vec<String> {
        let mut names = Vec::new();
        for j in start..end.min(self.end) {
            let t = &self.t[j];
            if t.kind == TokKind::Ident
                && t.text.chars().next().is_some_and(|c| c.is_ascii_lowercase() || c == '_')
                && !NON_BINDERS.contains(&t.text.as_str())
                && !skip.contains(&t.text.as_str())
                && self.t.get(j + 1).is_none_or(|n| !n.is_punct(':'))
            {
                names.push(t.text.clone());
            }
        }
        names
    }

    /// Parse a pattern (cursor at its start, ending at `end`) into its
    /// sub-patterns; binding keywords and `|`/`@` separators are skipped.
    fn pattern_exprs(&mut self, end: usize) -> Vec<Expr> {
        let mut p = self.sub(self.i, end);
        let mut out = Vec::new();
        while p.i < p.end {
            if matches!(p.txt(0), "mut" | "ref" | "box" | "|" | "@" | ",") {
                p.bump();
                continue;
            }
            let before = p.i;
            out.push(p.range_expr(true, true));
            if p.i == before {
                p.bump();
            }
        }
        self.i = end;
        out
    }

    /// `pat` up to its natural end: the parsed sub-patterns and binders.
    fn pattern(&mut self) -> (Vec<Expr>, Vec<String>) {
        let end = self.pattern_end(false, false);
        let names = self.binders(self.i, end, &[]);
        (self.pattern_exprs(end), names)
    }

    /// Enter one nesting level; `false` (after dropping a token) when the
    /// expression is already too deep to parse.
    fn nest(&mut self) -> bool {
        if self.depth >= MAX_DEPTH {
            self.bump();
            return false;
        }
        self.depth += 1;
        true
    }
}

impl P<'_> {
    /// Parse the block whose `{` the cursor sits on. Always terminates:
    /// a malformed body degrades to Opaque statements, never a hang.
    fn block(&mut self) -> Block {
        let mut b = Block { stmts: Vec::new(), tail: None, close: self.i };
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
                "#" => {
                    // attribute: `#` [`!`] `[` … `]`
                    self.bump();
                    self.eat("!");
                    if self.at("[") {
                        self.skip_group();
                    }
                }
                "fn" | "struct" | "enum" | "impl" | "trait" | "mod" | "pub" | "use" | "static"
                | "type" | "extern" | "macro_rules" => b.stmts.push(self.item()),
                "const" | "unsafe" if self.txt(1) != "{" => b.stmts.push(self.item()),
                _ => {
                    let e = self.expr(true);
                    // `return`/`break`/`continue` are statements even
                    // without a `;`: they never form a block's value.
                    let jump = matches!(e, Expr::Ret(..) | Expr::Break(_) | Expr::Continue);
                    if self.at("}") && !jump {
                        b.tail = Some(Box::new(e));
                    } else {
                        b.stmts.push(Stmt::Expr(e, self.i));
                        self.eat(";");
                    }
                }
            }
            if self.i == before {
                // No progress — drop the token, keep the pass total.
                self.bump();
            }
        }
        b.close = self.i;
        self.eat("}");
        b
    }

    /// A nested item. Fn, impl, trait and mod bodies parse as blocks and
    /// const/static initializers as expressions, so their call sites stay
    /// visible to the symbol graph; everything else is skipped.
    fn item(&mut self) -> Stmt {
        let mut inner = Vec::new();
        while self.i < self.end && !self.at(";") && !self.at("}") {
            match self.txt(0) {
                "{" => {
                    inner.push(Expr::BlockE(self.block()));
                    return Stmt::Item(inner);
                }
                "(" | "[" => self.skip_group(),
                "=" if self.txt(1) != ">" => {
                    self.bump();
                    inner.push(self.expr(true));
                }
                _ => self.bump(),
            }
        }
        self.eat(";");
        Stmt::Item(inner)
    }

    fn let_stmt(&mut self) -> Stmt {
        let line = self.line();
        self.bump(); // `let`
        let (pat, names) = self.pattern();
        let ty = if self.at(":") && self.txt(1) != ":" {
            self.bump();
            self.take_type()
        } else {
            String::new()
        };
        let init = if self.eat("=") { Some(self.expr(true)) } else { None };
        let else_b = if self.eat("else") && self.at("{") { Some(self.block()) } else { None };
        let end = self.i;
        self.eat(";");
        Stmt::Let { pat, names, ty, init, else_b, line, end }
    }

    /// Full expression, lowest precedence (assignment / ranges).
    /// `allow_struct` is off inside `if`/`while`/`match`-head positions
    /// where `Foo {` would swallow the body.
    fn expr(&mut self, allow_struct: bool) -> Expr {
        if !self.nest() {
            return Expr::Opaque;
        }
        let e = self.assign_expr(allow_struct);
        self.depth -= 1;
        e
    }

    fn assign_expr(&mut self, allow_struct: bool) -> Expr {
        let lhs = self.range_expr(allow_struct, false);
        let line = self.line();
        // `=` or a compound `op=` (not `==`, `=>`, `<=`, …)
        let (op, n) = match (self.txt(0), self.txt(1), self.txt(2)) {
            ("=", b, _) if b != "=" && b != ">" => (None, 1),
            (a, "=", c) if c != "=" => match a {
                "+" => (Some(BinOp::Add), 2),
                "-" => (Some(BinOp::Sub), 2),
                "*" => (Some(BinOp::Mul), 2),
                "/" => (Some(BinOp::Div), 2),
                "%" => (Some(BinOp::Rem), 2),
                "|" | "&" | "^" => (Some(BinOp::Other), 2),
                _ => return lhs,
            },
            _ => return lhs,
        };
        self.i += n;
        let value = Box::new(self.expr(allow_struct));
        Expr::Assign { target: Box::new(lhs), op, value, line }
    }

    /// `a..b`, `a..=b`, `..b`, `a..`; in patterns (`pat`) `|` is an
    /// alternative separator, not an operator, so operands stop short of it.
    fn range_expr(&mut self, allow_struct: bool, pat: bool) -> Expr {
        let operand = |p: &mut Self| {
            if pat {
                p.binary(4, allow_struct)
            } else {
                p.binary(0, allow_struct)
            }
        };
        let ends_range =
            |p: &Self| matches!(p.txt(0), ")" | "]" | "}" | "{" | "," | ";" | "|" | "=" | "");
        let lo = if self.at2(".", ".") { None } else { Some(Box::new(operand(self))) };
        if !self.at2(".", ".") {
            return *lo.unwrap_or_else(|| Box::new(Expr::Opaque));
        }
        self.i += 2;
        self.eat("=");
        let hi = if ends_range(self) || (self.at("=") && self.txt(1) == ">") {
            None
        } else {
            Some(Box::new(operand(self)))
        };
        Expr::Range(lo, hi)
    }

    /// The binary operator at the cursor if it binds at `level` (0 = `||`,
    /// 1 = `&&`, 2 = comparisons, 3 = bitops and shifts, 4 = `+ -`,
    /// 5 = `* / %`), with its token count. Compound assignments (`+=`),
    /// `->` and `=>` are not binary operators.
    fn bin_op(&self, level: u8) -> Option<(BinOp, usize)> {
        let (a, b, c) = (self.txt(0), self.txt(1), self.txt(2));
        let op = match (level, a, b) {
            (0, "|", "|") if c != "=" => (BinOp::Other, 2),
            (1, "&", "&") => (BinOp::Other, 2),
            (2, "=" | "!", "=") => (BinOp::Cmp, 2),
            (2, "<", _) if b != "<" => (BinOp::Cmp, 1 + usize::from(b == "=")),
            (2, ">", _) if b != ">" => (BinOp::Cmp, 1 + usize::from(b == "=")),
            (3, "|", _) if b != "|" && b != "=" => (BinOp::Other, 1),
            (3, "&", _) if b != "&" && b != "=" => (BinOp::Other, 1),
            (3, "^", _) if b != "=" => (BinOp::Other, 1),
            (3, "<", "<") | (3, ">", ">") if c != "=" => (BinOp::Other, 2),
            (4, "+", _) if b != "=" => (BinOp::Add, 1),
            (4, "-", _) if b != "=" && b != ">" => (BinOp::Sub, 1),
            (5, "*", _) if b != "=" => (BinOp::Mul, 1),
            (5, "/", _) if b != "=" => (BinOp::Div, 1),
            (5, "%", _) if b != "=" => (BinOp::Rem, 1),
            _ => return None,
        };
        Some(op)
    }

    /// Left-associative binary expressions from `level` up; comparisons
    /// do not chain.
    fn binary(&mut self, level: u8, allow_struct: bool) -> Expr {
        if level > 5 {
            return self.cast_expr(allow_struct);
        }
        let mut lhs = self.binary(level + 1, allow_struct);
        while let Some((op, n)) = self.bin_op(level) {
            let line = self.line();
            self.i += n;
            let rhs = self.binary(level + 1, allow_struct);
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), line);
            if op == BinOp::Cmp {
                break;
            }
        }
        lhs
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
        let op = self.txt(0);
        if !matches!(op, "-" | "*" | "&" | "!") {
            return self.postfix_expr(allow_struct);
        }
        if !self.nest() {
            return Expr::Opaque;
        }
        self.bump();
        if op == "&" {
            self.eat("&"); // `&&x` double-ref
            self.eat("mut");
        }
        let inner = Box::new(self.unary_expr(allow_struct));
        self.depth -= 1;
        if op == "!" {
            Expr::Not(inner)
        } else {
            Expr::Unary(inner)
        }
    }
}

impl P<'_> {
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
                    e = Expr::TupleField(Box::new(e));
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
                    let (args, end) = self.group_items();
                    let recv = Some(Box::new(e));
                    e = Expr::Call { recv, path: Vec::new(), name, pos, line, args, end };
                } else {
                    e = Expr::Field { base: Box::new(e), name, line };
                }
            } else if self.at("(") {
                // call of a non-path callee (closure var, fn-typed field)
                let line = self.line();
                let (args, end) = self.group_items();
                let recv = Some(Box::new(e));
                e = Expr::Call {
                    recv,
                    path: Vec::new(),
                    name: String::new(),
                    pos: 0,
                    line,
                    args,
                    end,
                };
            } else if self.at("[") {
                let end = self.group_end();
                let index = self.sub(self.i + 1, end).expr(true);
                self.i = end + 1;
                e = Expr::Index { base: Box::new(e), index: Box::new(index), end };
            } else {
                return e;
            }
        }
    }

    fn primary_expr(&mut self, allow_struct: bool) -> Expr {
        let Some(t) = self.peek(0) else { return Expr::Opaque };
        match t.kind {
            TokKind::Num => {
                self.bump();
                return Expr::Lit { zero: t.text == "0" };
            }
            TokKind::Str => {
                self.bump();
                return Expr::Str { text: t.text.clone(), line: t.line };
            }
            TokKind::Lifetime => {
                self.bump();
                // loop label `'outer: loop { … }`
                if self.at(":") && self.txt(1) != ":" {
                    self.bump();
                    return self.primary_expr(allow_struct);
                }
                return Expr::Opaque;
            }
            _ => {}
        }
        match self.txt(0) {
            "(" => {
                let (mut items, close) = self.group_items();
                if items.len() == 1 {
                    Expr::Paren(Box::new(items.remove(0)), close)
                } else {
                    Expr::Tuple(items, close)
                }
            }
            "[" => {
                let (items, end) = self.group_items();
                Expr::Array(items, end)
            }
            "<" => {
                // qualified path `<T as Trait>::name`
                self.skip_angles();
                if self.at2(":", ":") {
                    self.i += 2;
                    if self.is_ident(0) {
                        return self.path_expr(allow_struct);
                    }
                }
                Expr::Opaque
            }
            "{" => Expr::BlockE(self.block()),
            "unsafe" | "const" | "async" if self.txt(1) == "{" => {
                self.bump();
                Expr::BlockE(self.block())
            }
            "if" => self.if_expr(),
            "match" => self.match_expr(),
            "loop" => {
                self.bump();
                Expr::Loop(self.block())
            }
            "while" => {
                self.bump();
                let cond = self.cond();
                Expr::While { cond: Box::new(cond), body: self.block() }
            }
            "for" => {
                self.bump();
                let (pat, var) = self.pattern();
                self.eat("in");
                let iter = self.expr(false);
                Expr::For { var, pat, iter: Box::new(iter), body: self.block() }
            }
            kw @ ("return" | "break" | "continue") => {
                self.bump();
                if self.peek(0).is_some_and(|t| t.kind == TokKind::Lifetime) {
                    self.bump(); // `break 'outer`
                }
                let line = self.line();
                let v = (kw != "continue" && !matches!(self.txt(0), ";" | "}" | ")" | "," | ""))
                    .then(|| Box::new(self.expr(true)));
                match kw {
                    "return" => Expr::Ret(v, line),
                    "break" => Expr::Break(v),
                    _ => Expr::Continue,
                }
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
            ")" | "]" | "}" => Expr::Opaque,
            _ if t.kind == TokKind::Ident => self.path_expr(allow_struct),
            _ => {
                self.bump();
                Expr::Opaque
            }
        }
    }

    /// An `if`/`while` condition: an expression or `let pat = init`.
    fn cond(&mut self) -> Expr {
        if !self.eat("let") {
            return self.expr(false);
        }
        let end = self.pattern_end(false, false);
        let pat = self.pattern_exprs(end);
        self.eat("=");
        Expr::Let { pat, init: Box::new(self.expr(false)) }
    }

    fn if_expr(&mut self) -> Expr {
        self.bump(); // `if`
        let cond = self.cond();
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
        let scrutinee = Box::new(self.expr(false));
        let mut arms = Vec::new();
        if !self.at("{") {
            return Expr::Match { scrutinee, arms, end: self.i };
        }
        let close = self.group_end();
        let mut p = self.sub(self.i + 1, close);
        while p.i < p.end {
            let before = p.i;
            while p.at("#") {
                p.bump();
                p.skip_group();
            }
            // pattern, then guard: everything to `=>` at depth 0
            let pat_end = p.pattern_end(false, true);
            let mut g = p.sub(pat_end, p.end);
            while g.i < g.end && !g.at2("=", ">") {
                g.skip_group();
            }
            let arrow = g.i;
            let binds = p.binders(p.i, arrow, &["if"]);
            let pat = p.pattern_exprs(pat_end);
            let guard = p.eat("if").then(|| p.sub(p.i, arrow).expr(true));
            p.i = arrow;
            p.eat2("=", ">");
            let body = if p.at("{") { Expr::BlockE(p.block()) } else { p.expr(true) };
            arms.push(Arm { pat, guard, binds, body });
            p.eat(",");
            if p.i == before {
                p.bump();
            }
        }
        self.i = close + 1;
        Expr::Match { scrutinee, arms, end: close }
    }

    fn closure_expr(&mut self) -> Expr {
        let (mut params, mut pat) = (Vec::new(), Vec::new());
        if !self.eat2("|", "|") && self.eat("|") {
            while self.i < self.end && !self.at("|") {
                let before = self.i;
                let end = self.pattern_end(true, false);
                params.extend(self.binders(self.i, end, &[]));
                pat.extend(self.pattern_exprs(end));
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
        if self.eat2("-", ">") {
            let _ = self.take_type();
        }
        let body = if self.at("{") { Expr::BlockE(self.block()) } else { self.expr(true) };
        Expr::Closure { params, pat, body: Box::new(body) }
    }

    /// A path expression (possibly a call, macro, or struct literal).
    fn path_expr(&mut self, allow_struct: bool) -> Expr {
        let mut segs = vec![self.txt(0).to_string()];
        let mut pos = self.i;
        let line = self.line();
        self.bump();
        if self.at("!") && matches!(self.txt(1), "(" | "[" | "{") {
            self.bump();
            let (args, end) = self.group_items();
            return Expr::Macro { args, end };
        }
        while self.at2(":", ":") {
            self.i += 2;
            if self.at("<") {
                self.skip_angles(); // turbofish
            } else if self.is_ident(0) {
                segs.push(self.txt(0).to_string());
                pos = self.i;
                self.bump();
            } else {
                break;
            }
        }
        if self.at("(") {
            let (args, end) = self.group_items();
            let name = segs.last().cloned().unwrap_or_default();
            return Expr::Call { recv: None, path: segs, name, pos, line, args, end };
        }
        if self.at("{") && allow_struct && self.struct_lit_ahead(&segs) {
            return self.struct_lit(segs);
        }
        Expr::Path { segs, pos, line }
    }

    /// Lookahead: does the `{` under the cursor open a struct literal?
    /// The path must end in a type-like name (CamelCase or `Self`) and the
    /// braces open with `}`, `..`, `#`, or a field name followed by `:`
    /// (not `::`), `,`, or `}`.
    fn struct_lit_ahead(&self, segs: &[String]) -> bool {
        let type_like = segs
            .last()
            .is_some_and(|s| s == "Self" || s.chars().next().is_some_and(char::is_uppercase));
        if !type_like {
            return false;
        }
        match self.txt(1) {
            "}" | "#" => true,
            "." => self.txt(2) == ".",
            _ => {
                self.is_ident(1)
                    && (matches!(self.txt(2), "," | "}")
                        || (self.txt(2) == ":" && self.txt(3) != ":"))
            }
        }
    }

    fn struct_lit(&mut self, path: Vec<String>) -> Expr {
        let close = self.group_end();
        let mut p = self.sub(self.i + 1, close);
        let mut inits = Vec::new();
        let mut base = None;
        while p.i < p.end {
            let before = p.i;
            if p.at("#") {
                p.bump();
                p.skip_group();
                continue;
            }
            if p.eat2(".", ".") {
                if p.i < p.end {
                    base = Some(Box::new(p.expr(true)));
                }
                break;
            }
            let line = p.line();
            let field = p.txt(0).to_string();
            if !p.is_ident(0) {
                p.bump();
                continue;
            }
            let pos = p.i;
            p.bump();
            // `Foo { field }` is initialized from the binding of that name.
            let value = if p.at(":") && p.txt(1) != ":" {
                p.bump();
                p.expr(true)
            } else {
                Expr::Path { segs: vec![field.clone()], pos, line }
            };
            inits.push(Init { field, value, line });
            p.eat(",");
            if p.i == before {
                p.bump();
            }
        }
        self.i = close + 1;
        Expr::StructLit { path, inits, base, end: close }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::code_toks;

    fn parse(src: &str) -> Block {
        let code = code_toks(src);
        let close = code.len() - 1;
        parse_body(&code, 0, close)
    }

    fn calls(b: &Block) -> Vec<String> {
        let mut out = Vec::new();
        b.walk(&mut |e| {
            if let Expr::Call { name, .. } = e {
                out.push(name.clone());
            }
        });
        out
    }

    #[test]
    fn macro_arguments_and_let_scrutinees_are_kept() {
        let b = parse(
            "{ println!(\"{}\", report_to_json(&r)); if let Some(x) = probe(1) { use_it(x) } }",
        );
        assert_eq!(calls(&b), ["report_to_json", "Some", "probe", "use_it"]);
    }

    #[test]
    fn multi_param_closures_end_at_their_bar() {
        let b = parse("{ let s = xs.iter().fold(0, |acc, x| acc + x); after(s); }");
        assert_eq!(calls(&b), ["fold", "iter", "after"]);
        let Stmt::Let { init: Some(Expr::Call { args, .. }), .. } = &b.stmts[0] else { panic!() };
        let Expr::Closure { params, .. } = &args[1] else { panic!("{args:?}") };
        assert_eq!(params, &["acc", "x"]);
    }

    #[test]
    fn shorthand_struct_literals_and_patterns() {
        let b = parse("{ let c = Self { name, cores: 12, ..Default::default() }; }");
        let Stmt::Let { init: Some(Expr::StructLit { inits, base, .. }), .. } = &b.stmts[0] else {
            panic!("{:?}", b.stmts)
        };
        assert!(matches!(&inits[0].value, Expr::Path { segs, .. } if segs == &["name"]));
        assert!(matches!(inits[1].value, Expr::Lit { zero: false }));
        assert!(base.is_some());
        let m = parse("{ match k { Kind::A { x, .. } | Kind::B(x) if x > 0 => x, _ => 0 } }");
        let Some(Expr::Match { arms, .. }) = m.tail.as_deref() else { panic!("{m:?}") };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0].binds, ["x", "x", "x"]);
        assert!(arms[0].guard.is_some());
    }

    #[test]
    fn statement_ends_and_block_closes_are_token_positions() {
        let code = code_toks("{ let g = m.lock(); g.x }");
        let b = parse_body(&code, 0, code.len() - 1);
        let Stmt::Let { end, .. } = &b.stmts[0] else { panic!() };
        assert!(code[*end].is_punct(';'));
        assert!(code[b.close].is_punct('}'));
    }

    #[test]
    fn deep_or_broken_input_terminates() {
        let deep = format!("{{ {}1{} }}", "(".repeat(500), ")".repeat(500));
        let _ = parse(&deep);
        let _ = parse(&format!("{{ {} }}", "-!&*".repeat(400)));
        let _ = parse("{ let x = |a, b| ; match { => } if { ( ] }");
    }
}
