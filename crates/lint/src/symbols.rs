//! Workspace-wide symbol graph over the [`crate::parser`] item trees.
//!
//! For every file this records the definitions (structs + fields, enums +
//! variants, trait method sets) and, per function, the *references* the
//! cross-file rules need: call sites by name, field reads (`.f` in value
//! position), field writes (`.f = …` and struct-literal initializers,
//! with the initializing type when it is syntactically visible), and
//! string-literal metric paths passed to the registry methods.
//!
//! References are linked through resolved paths (`calls_fq`,
//! `reads_typed`, lock regions): a walk over each body's parsed tree
//! ([`crate::body`]) evaluates every expression to a lightweight type
//! (parameter/let/struct-literal bindings, field types, method return
//! types) and a [`crate::resolve::Resolver`] attributes each site to a
//! fully-qualified symbol. A
//! site the tracker cannot prove lands in `calls_unresolved` /
//! `reads_unresolved` and falls back to bare-name linking — a `.seed`
//! read there counts as a read of every field named `seed`. That
//! over-approximation can only *hide* violations, never invent them.

use std::collections::{BTreeMap, BTreeSet};

use crate::body::{Block, Expr, Stmt};
use crate::lexer::TokKind;
use crate::parser::{self, Item, ItemKind};
use crate::resolve::{Res, Resolver, TyRes};
use crate::rules::FileCtx;

/// Registry methods whose first string argument is a metric dot-path.
pub const METRIC_METHODS: &[&str] =
    &["set_counter", "add_counter", "set_gauge", "put_histogram", "export"];

/// One field write: plain assignment, compound assignment, or
/// struct-literal initializer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldWrite {
    /// Initializing type for struct literals (`Cfg { f: … }`, with `Self`
    /// resolved through the enclosing impl); `None` for dot-writes.
    pub type_name: Option<String>,
    /// Resolved fq of the written-to struct when the resolver proved it
    /// (struct literals via the literal head, dot-writes via the receiver
    /// chain); `None` on resolution failure.
    pub type_fq: Option<String>,
    pub field: String,
    /// The written value mentions a parameter of the enclosing fn — the
    /// signature of a builder/sweep actually varying the knob.
    pub param_derived: bool,
    /// The written value is the literal `0` (zero-stamps don't count as
    /// exercising a telemetry component).
    pub zero_literal: bool,
    pub line: u32,
}

/// One metric-path registration site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricReg {
    /// Normalized path pattern: format holes `{…}` collapse to `*`.
    pub pattern: String,
    /// No holes — the path is a compile-time constant.
    pub constant: bool,
    pub line: u32,
}

/// One call site, with its resolution when the semantic walk proved one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Index of the callee ident in the file's code-token vector.
    pub pos: usize,
    pub line: u32,
    pub name: String,
    /// Fully-qualified callee (`module::f` / `module::Type::m`).
    pub fq: Option<String>,
    /// The site is accounted for even without an `fq` edge (std methods,
    /// `MutexGuard` plumbing, `drop`); unresolved sites link by name.
    pub resolved: bool,
}

/// A span during which a recognized `Mutex` is held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockRegion {
    /// Mutex identity: `OwnerFq::field` for struct fields,
    /// `module::NAME` for statics.
    pub mutex: String,
    pub line: u32,
    /// Token span `[start, end)` in the file's code-token vector: from
    /// the `.lock()` call to the end of the enclosing block for let-bound
    /// guards (shortened by `drop(guard)`), or to where the temporary dies
    /// (the end of its statement or of the innermost enclosing group).
    pub start: usize,
    pub end: usize,
    /// Binding name for let-bound guards.
    pub guard: Option<String>,
}

/// `acquired` was locked while `held` was already live (same fn body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    pub held: String,
    pub acquired: String,
    pub line: u32,
}

/// Everything the rules need to know about one function body.
#[derive(Debug, Clone, Default)]
pub struct FnSym {
    pub name: String,
    /// `Self` type when defined inside an impl (or trait) block.
    pub owner: Option<String>,
    /// Fully-qualified ID: `module::name` for free fns,
    /// `owner_fq::name` for methods (`?::`-prefixed when the impl's
    /// `Self` type did not resolve).
    pub fq: String,
    pub line: u32,
    pub in_test: bool,
    pub is_pub: bool,
    /// Body token span in the file's code-token vector.
    pub body: Option<(usize, usize)>,
    pub params: Vec<String>,
    /// Declared type text per entry of `params`.
    pub param_tys: Vec<String>,
    /// Return-type text (see [`parser::FnDef::ret`]).
    pub ret: String,
    /// Resolved call targets by fq.
    pub calls_fq: BTreeSet<String>,
    /// Call names with at least one unresolved site — these link by bare
    /// name.
    pub calls_unresolved: BTreeSet<String>,
    /// Fields read (`.f` not in assignment-target position).
    pub field_reads: BTreeSet<String>,
    /// Reads attributed to a specific struct: `(struct_fq, field)`.
    pub reads_typed: BTreeSet<(String, String)>,
    /// Field names with at least one unresolved read site — these link by
    /// bare name.
    pub reads_unresolved: BTreeSet<String>,
    pub writes: Vec<FieldWrite>,
    pub metric_regs: Vec<MetricReg>,
    /// Every call site in order.
    pub call_sites: Vec<CallSite>,
    /// Spans holding a recognized mutex.
    pub lock_regions: Vec<LockRegion>,
    /// Nested acquisitions observed in this body.
    pub lock_order: Vec<LockEdge>,
}

#[derive(Debug, Clone)]
pub struct StructSym {
    pub name: String,
    pub line: u32,
    pub fields: Vec<parser::FieldDef>,
}

#[derive(Debug, Clone)]
pub struct EnumSym {
    pub name: String,
    pub line: u32,
    pub variants: Vec<parser::VariantDef>,
}

/// Per-file slice of the symbol graph.
#[derive(Debug, Clone, Default)]
pub struct FileSyms {
    pub structs: Vec<StructSym>,
    pub enums: Vec<EnumSym>,
    /// Trait name → method names (e.g. `TelemetrySink` → sink hooks).
    pub trait_methods: BTreeMap<String, Vec<String>>,
    pub fns: Vec<FnSym>,
    /// Every identifier in the file (the C01 "is it read at all" set).
    pub idents: BTreeSet<String>,
}

/// The whole workspace, keyed by repo-relative path (BTreeMap: the lint's
/// own output must be deterministic).
#[derive(Debug, Clone)]
pub struct Workspace {
    pub files: BTreeMap<String, FileSyms>,
    pub resolver: Resolver,
}

impl Workspace {
    /// Build the graph from already-lexed file contexts.
    pub fn from_ctxs(ctxs: &[FileCtx]) -> Self {
        let items: Vec<(&str, &[Item])> =
            ctxs.iter().map(|c| (c.rel, c.items.as_slice())).collect();
        let resolver = Resolver::build(&items);
        let files =
            ctxs.iter().map(|ctx| (ctx.rel.to_string(), FileSyms::build(ctx, &resolver))).collect();
        Self { files, resolver }
    }

    /// Build the graph from `(rel, src)` pairs (fixture tests).
    pub fn from_sources(sources: &[(&str, &str)]) -> Self {
        let ctxs: Vec<FileCtx> = sources.iter().map(|(rel, src)| FileCtx::new(rel, src)).collect();
        Self::from_ctxs(&ctxs)
    }

    /// Method names of the `TelemetrySink`-style trait as seen from
    /// `rel`: resolve the trait name in the file's module when possible,
    /// falling back to the first same-named trait definition anywhere.
    pub fn trait_methods_for(&self, rel: &str, trait_name: &str) -> Option<Vec<String>> {
        let r = &self.resolver;
        if let Some(module) = r.module_of(rel) {
            if let Res::Type(fq) = r.resolve_path(module, &[trait_name], 8) {
                if let Some(methods) = r.traits.get(&fq) {
                    return Some(methods.iter().cloned().collect());
                }
            }
        }
        self.trait_method_names(trait_name)
    }

    /// Method names of the first trait definition called `name`.
    pub fn trait_method_names(&self, name: &str) -> Option<Vec<String>> {
        self.files.values().find_map(|s| s.trait_methods.get(name).cloned())
    }

    /// The struct `name` defined in file `rel`, if present.
    pub fn struct_def(&self, rel: &str, name: &str) -> Option<&StructSym> {
        self.files.get(rel)?.structs.iter().find(|s| s.name == name)
    }

    /// The enum `name` defined in file `rel`, if present.
    pub fn enum_def(&self, rel: &str, name: &str) -> Option<&EnumSym> {
        self.files.get(rel)?.enums.iter().find(|e| e.name == name)
    }

    /// The fq of the struct `name` defined in file `rel` (where the rule
    /// specs point), if it resolves.
    pub fn struct_fq(&self, rel: &str, name: &str) -> Option<String> {
        let r = &self.resolver;
        let module = r.module_of(rel)?;
        let fq = format!("{module}::{name}");
        r.struct_fields.contains_key(&fq).then_some(fq)
    }

    /// Does `f` read `field` of the struct `fq`?
    /// An unresolved read of the right name always counts (fallback); a
    /// typed read counts only against its own struct.
    pub fn reads_field(&self, f: &FnSym, fq: Option<&str>, field: &str) -> bool {
        if f.reads_unresolved.contains(field) {
            return true;
        }
        match fq {
            Some(fq) => f.reads_typed.contains(&(fq.to_string(), field.to_string())),
            // Spec struct itself unresolvable → full bare fallback.
            None => f.field_reads.contains(field),
        }
    }
}

impl FileSyms {
    fn build(ctx: &FileCtx, r: &Resolver) -> Self {
        let idents =
            ctx.code.iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone()).collect();
        let mut out = Self { idents, ..Self::default() };
        let module = r.module_of(ctx.rel).expect("Resolver::build registers every file");
        collect_items(&ctx.items, &ctx.bodies, None, false, (r, module), &mut out);
        out
    }
}

fn collect_items(
    items: &[Item],
    bodies: &BTreeMap<usize, Block>,
    owner: Option<(&str, &str)>, // (bare name, fq)
    in_test: bool,
    sem: (&Resolver, &str), // (resolver, module)
    out: &mut FileSyms,
) {
    for item in items {
        match &item.kind {
            ItemKind::Struct { fields } => out.structs.push(StructSym {
                name: item.name.clone(),
                line: item.line,
                fields: fields.clone(),
            }),
            ItemKind::Enum { variants } => out.enums.push(EnumSym {
                name: item.name.clone(),
                line: item.line,
                variants: variants.clone(),
            }),
            ItemKind::Fn(def) => {
                let body = def.body.and_then(|(open, _)| bodies.get(&open));
                out.fns.push(analyze_fn(item, def, body, owner, in_test, sem));
            }
            ItemKind::Impl { items: inner, .. } => {
                let (r, module) = sem;
                let owner_fq = match r.resolve_path(module, &[&item.name], 16) {
                    Res::Type(fq) => fq,
                    _ => format!("?::{module}::{}", item.name),
                };
                collect_items(inner, bodies, Some((&item.name, &owner_fq)), in_test, sem, out);
            }
            ItemKind::Trait { items: inner } => {
                let methods: Vec<String> = inner
                    .iter()
                    .filter(|i| matches!(i.kind, ItemKind::Fn(_)))
                    .map(|i| i.name.clone())
                    .collect();
                out.trait_methods.insert(item.name.clone(), methods);
                let owner_fq = format!("{}::{}", sem.1, item.name);
                collect_items(inner, bodies, Some((&item.name, &owner_fq)), in_test, sem, out);
            }
            ItemKind::Mod { is_test, items: inner } => {
                let sub = format!("{}::{}", sem.1, item.name);
                collect_items(inner, bodies, owner, in_test || *is_test, (sem.0, &sub), out);
            }
            ItemKind::Const { .. } | ItemKind::Use { .. } => {}
        }
    }
}

/// The lightweight value the semantic walk tracks per expression.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Val {
    None,
    /// A value of the struct/enum `fq`.
    Typed(String),
    /// A recognized `Mutex` (`id` is the lock identity; `inner` its
    /// payload type when resolved).
    Mutex {
        id: String,
        inner: Option<String>,
    },
    /// A live `MutexGuard` over `id`, dereferencing to `inner`; `region`
    /// indexes its lock region.
    Guard {
        id: String,
        inner: Option<String>,
        region: usize,
    },
}

impl Val {
    fn type_fq(&self) -> Option<&str> {
        match self {
            Val::Typed(t) | Val::Guard { inner: Some(t), .. } => Some(t),
            _ => None,
        }
    }

    fn of_ty(ty: &TyRes, mutex_id: Option<String>) -> Val {
        match (ty.mutex, mutex_id) {
            (true, Some(id)) => Val::Mutex { id, inner: ty.ty.clone() },
            // A mutex we cannot name (local/parameter) is not tracked.
            (true, None) => Val::None,
            (false, _) => ty.ty.clone().map_or(Val::None, Val::Typed),
        }
    }

    fn ret(ret: Option<&String>) -> Val {
        ret.cloned().map_or(Val::None, Val::Typed)
    }
}

const DEPTH: usize = 16;

/// Unresolved methods whose value has the type of their last argument (or
/// of the closure body it returns).
const FALLBACK_METHODS: &[&str] = &["or_insert", "or_insert_with", "unwrap_or", "unwrap_or_else"];

/// Per-body state of the walk over the parsed body that fills one
/// [`FnSym`].
struct Walk<'a> {
    r: &'a Resolver,
    module: &'a str,
    /// `(bare name, fq)` of the enclosing impl/trait's `Self` type.
    owner: Option<(&'a str, &'a str)>,
    params: BTreeSet<&'a str>,
    scopes: Vec<BTreeMap<String, Val>>,
    sym: FnSym,
}

impl Walk<'_> {
    fn owner_fq(&self) -> Option<&str> {
        self.owner.map(|(_, fq)| fq).filter(|fq| !fq.starts_with('?'))
    }

    fn resolve_here(&self, segs: &[&str]) -> Res {
        if segs.first() == Some(&"Self") {
            let Some(o) = self.owner_fq() else { return Res::Unknown };
            let mut cur = Res::Type(o.to_string());
            for seg in &segs[1..] {
                cur = match cur {
                    Res::Type(t) => self.r.type_member(&t, seg),
                    _ => Res::Unknown,
                };
            }
            return cur;
        }
        self.r.resolve_path(self.module, segs, DEPTH)
    }

    fn path_val(&self, segs: &[String]) -> Val {
        if let [name] = segs {
            if name == "self" {
                return self.owner_fq().map_or(Val::None, |o| Val::Typed(o.to_string()));
            }
            if let Some(v) = self.scopes.iter().rev().find_map(|s| s.get(name)) {
                return v.clone();
            }
        }
        let segs: Vec<&str> = segs.iter().map(String::as_str).collect();
        match self.resolve_here(&segs) {
            Res::Const(fq) => {
                let ty = self.r.consts.get(&fq).cloned().unwrap_or_default();
                Val::of_ty(&ty, Some(fq))
            }
            Res::Variant { owner, .. } if segs.len() > 1 => Val::Typed(owner),
            _ => Val::None,
        }
    }

    /// A read of field `name` of a value `recv`.
    fn read_field(&mut self, recv: &Val, name: &str) -> Val {
        self.sym.field_reads.insert(name.to_string());
        match recv.type_fq() {
            Some(t) if self.r.struct_has_field(t, name) => {
                self.sym.reads_typed.insert((t.to_string(), name.to_string()));
                let ty = self.r.field_ty(t, name).cloned().unwrap_or_default();
                Val::of_ty(&ty, Some(format!("{t}::{name}")))
            }
            _ => {
                self.sym.reads_unresolved.insert(name.to_string());
                Val::None
            }
        }
    }

    fn write(
        &mut self,
        field: &str,
        value: &Expr,
        line: u32,
        ty: (Option<String>, Option<String>),
    ) {
        self.sym.writes.push(FieldWrite {
            type_name: ty.0,
            type_fq: ty.1,
            field: field.to_string(),
            param_derived: mentions(value, &self.params),
            zero_literal: matches!(value, Expr::Lit { zero: true }),
            line,
        });
    }

    fn block(&mut self, b: &Block) -> Val {
        self.scopes.push(BTreeMap::new());
        for s in &b.stmts {
            match s {
                Stmt::Let { pat, ty, init, else_b, end, .. } => {
                    self.exprs(pat, *end);
                    let v = init.as_ref().map_or(Val::None, |e| self.expr(e, *end));
                    // `let [mut] name [: ty] = …` binds; patterns do not.
                    if let [Expr::Path { segs, .. }] = pat.as_slice() {
                        if let [name] = segs.as_slice() {
                            self.let_bind(name, ty, v, b.close);
                        }
                    }
                    if let Some(eb) = else_b {
                        self.block(eb);
                    }
                }
                Stmt::Expr(e, end) => {
                    self.expr(e, *end);
                }
                Stmt::Item(es) => self.exprs(es, b.close),
            }
        }
        if let Some(t) = &b.tail {
            self.expr(t, b.close);
        }
        self.scopes.pop();
        Val::None
    }

    /// `let name [: ty] = <v>`: a declared type wins; a guard keeps its
    /// lock region open to the end of the block (`close`).
    fn let_bind(&mut self, name: &str, ty: &str, v: Val, close: usize) {
        if let Val::Guard { region, .. } = v {
            if name != "_" {
                let reg = &mut self.sym.lock_regions[region];
                reg.end = close;
                reg.guard = Some(name.to_string());
            }
        }
        let v = if ty.is_empty() {
            v
        } else {
            Val::of_ty(&self.r.resolve_type_text(self.module, ty), None)
        };
        if v != Val::None {
            if let Some(scope) = self.scopes.last_mut() {
                scope.insert(name.to_string(), v);
            }
        }
    }

    fn exprs(&mut self, es: &[Expr], tmp_end: usize) {
        for e in es {
            self.expr(e, tmp_end);
        }
    }

    /// Walk `e`, recording its facts; `tmp_end` is the token where its
    /// temporaries (an unbound guard among them) are gone. Returns the
    /// value `e` evaluates to.
    fn expr(&mut self, e: &Expr, tmp_end: usize) -> Val {
        match e {
            Expr::Path { segs, .. } => self.path_val(segs),
            Expr::Field { base, name, .. } => {
                let recv = self.expr(base, tmp_end);
                self.read_field(&recv, name)
            }
            Expr::Unary(x) => self.expr(x, tmp_end),
            Expr::Paren(x, end) => self.expr(x, *end),
            Expr::Call { recv, path, name, pos, line, args, end } => {
                let recv = recv.as_ref().map(|r| self.expr(r, tmp_end));
                let v = if name.is_empty() {
                    Val::None
                } else {
                    self.call(recv.as_ref(), path, name, (*pos, *line), args, tmp_end)
                };
                let last_arg = args.iter().fold(Val::None, |_, a| self.expr(a, *end));
                // `entry(k).or_insert_with(|| V { … })` and kin return
                // (a reference to) their fallback's type.
                match v {
                    Val::None if recv.is_some() && FALLBACK_METHODS.contains(&name.as_str()) => {
                        last_arg
                    }
                    v => v,
                }
            }
            Expr::Assign { target, op, value, line } => {
                self.assign(target, op.is_some(), value, *line, tmp_end);
                Val::None
            }
            Expr::StructLit { path, inits, base, end } => {
                let last = path.last().map_or("", String::as_str);
                let type_name = if last == "Self" {
                    self.owner.map(|(o, _)| o.to_string())
                } else {
                    Some(last.to_string())
                };
                let segs: Vec<&str> = path.iter().map(String::as_str).collect();
                let type_fq =
                    [&segs[..], &[last]].iter().find_map(|s| match self.resolve_here(s) {
                        Res::Type(fq) => Some(fq),
                        _ => None,
                    });
                for i in inits.iter().filter(|_| type_name.is_some()) {
                    self.write(&i.field, &i.value, i.line, (type_name.clone(), type_fq.clone()));
                }
                for x in inits.iter().map(|i| &i.value).chain(base.as_deref()) {
                    self.expr(x, *end);
                }
                type_fq.map_or(Val::None, Val::Typed)
            }
            Expr::Index { base, index, end } => {
                self.expr(base, tmp_end);
                self.expr(index, *end);
                Val::None
            }
            Expr::Macro { args: xs, end } | Expr::Tuple(xs, end) | Expr::Array(xs, end) => {
                self.exprs(xs, *end);
                Val::None
            }
            Expr::Match { scrutinee, arms, end } => {
                self.expr(scrutinee, tmp_end);
                for a in arms {
                    self.exprs(&a.pat, *end);
                    a.guard.iter().chain([&a.body]).for_each(|x| {
                        self.expr(x, *end);
                    });
                }
                Val::None
            }
            Expr::BlockE(b) | Expr::Loop(b) => self.block(b),
            Expr::If { cond, then_b, else_b } => {
                self.expr(cond, tmp_end);
                self.block(then_b);
                else_b.as_deref().map_or(Val::None, |x| self.expr(x, tmp_end))
            }
            Expr::While { cond: x, body } | Expr::For { iter: x, body, .. } => {
                if let Expr::For { pat, .. } = e {
                    self.exprs(pat, tmp_end);
                }
                self.expr(x, tmp_end);
                self.block(body)
            }
            Expr::Let { pat, init } => {
                self.exprs(pat, tmp_end);
                self.expr(init, tmp_end);
                Val::None
            }
            Expr::Binary(_, l, r, _) => {
                self.expr(l, tmp_end);
                self.expr(r, tmp_end);
                Val::None
            }
            Expr::Range(lo, hi) => {
                for x in lo.iter().chain(hi) {
                    self.expr(x, tmp_end);
                }
                Val::None
            }
            Expr::Ret(x, _) | Expr::Break(x) => {
                if let Some(x) = x {
                    self.expr(x, tmp_end);
                }
                Val::None
            }
            Expr::Closure { pat, body, .. } => {
                self.exprs(pat, tmp_end);
                self.expr(body, tmp_end)
            }
            Expr::Not(x) | Expr::TupleField(x) | Expr::Cast(x) => {
                self.expr(x, tmp_end);
                Val::None
            }
            Expr::Lit { .. } | Expr::Str { .. } | Expr::Continue | Expr::Opaque => Val::None,
        }
    }

    /// A write `target [op]= value`: a field target records a write
    /// (compound ones read the field too).
    fn assign(&mut self, target: &Expr, compound: bool, value: &Expr, line: u32, tmp_end: usize) {
        let mut t = target;
        while let Expr::Unary(x) = t {
            t = x;
        }
        if let Expr::Field { base, name, .. } = t {
            let recv = self.expr(base, tmp_end);
            let ty =
                recv.type_fq().filter(|t| self.r.struct_has_field(t, name)).map(str::to_string);
            self.write(name, value, line, (None, ty));
            if compound {
                self.read_field(&recv, name);
            }
        } else {
            self.expr(t, tmp_end);
        }
        self.expr(value, tmp_end);
    }

    /// Record and classify one call site; returns the call's value.
    fn call(
        &mut self,
        recv: Option<&Val>,
        path: &[String],
        name: &str,
        (pos, line): (usize, u32),
        args: &[Expr],
        tmp_end: usize,
    ) -> Val {
        if METRIC_METHODS.contains(&name) {
            if let Some(reg) = metric_path(args) {
                self.sym.metric_regs.push(reg);
            }
        }
        let path: Vec<&str> = path.iter().map(String::as_str).collect();
        let (fq, resolved, result) = match recv {
            Some(Val::Mutex { id, inner }) if name == "lock" => {
                for reg in &self.sym.lock_regions {
                    if reg.end > pos {
                        let (held, acquired) = (reg.mutex.clone(), id.clone());
                        self.sym.lock_order.push(LockEdge { held, acquired, line });
                    }
                }
                let (mutex, end) = (id.clone(), tmp_end);
                self.sym.lock_regions.push(LockRegion {
                    mutex,
                    line,
                    start: pos,
                    end,
                    guard: None,
                });
                let region = self.sym.lock_regions.len() - 1;
                (None, true, Val::Guard { id: id.clone(), inner: inner.clone(), region })
            }
            Some(g @ Val::Guard { .. }) if matches!(name, "unwrap" | "expect") => {
                (None, true, g.clone())
            }
            Some(v) if matches!(name, "clone" | "to_owned" | "as_ref" | "borrow") => {
                (None, true, v.clone())
            }
            Some(v) => match v.type_fq().and_then(|t| Some((t, self.r.method(t, name)?))) {
                Some((t, info)) => {
                    (Some(format!("{t}::{name}")), true, Val::ret(info.ret.as_ref()))
                }
                None => (None, false, Val::None),
            },
            None if path.len() == 1 && name == "drop" => {
                if let [Expr::Path { segs, .. }] = args {
                    for reg in &mut self.sym.lock_regions {
                        if reg.guard.as_deref() == segs.first().map(String::as_str) && reg.end > pos
                        {
                            reg.end = pos;
                        }
                    }
                }
                (None, true, Val::None)
            }
            None => match self.resolve_here(&path) {
                Res::Fn(f) => {
                    let v = Val::ret(self.r.fns.get(&f).and_then(|i| i.ret.as_ref()));
                    (Some(f), true, v)
                }
                Res::Method { owner, name: m } => {
                    let v = Val::ret(self.r.method(&owner, &m).and_then(|i| i.ret.as_ref()));
                    (Some(format!("{owner}::{m}")), true, v)
                }
                // Tuple-variant / tuple-struct constructors yield the type.
                Res::Variant { owner, .. } | Res::Type(owner) => (None, true, Val::Typed(owner)),
                _ => (None, false, Val::None),
            },
        };
        if let Some(fq) = &fq {
            self.sym.calls_fq.insert(fq.clone());
        }
        if !resolved {
            self.sym.calls_unresolved.insert(name.to_string());
        }
        self.sym.call_sites.push(CallSite { pos, line, name: name.to_string(), fq, resolved });
        result
    }
}

fn analyze_fn(
    item: &Item,
    def: &parser::FnDef,
    body: Option<&Block>,
    owner: Option<(&str, &str)>,
    in_test: bool,
    (r, module): (&Resolver, &str),
) -> FnSym {
    let fq = match owner {
        Some((_, owner_fq)) => format!("{owner_fq}::{}", item.name),
        None => format!("{module}::{}", item.name),
    };
    let sym = FnSym {
        name: item.name.clone(),
        owner: owner.map(|(o, _)| o.to_string()),
        fq,
        line: item.line,
        in_test,
        is_pub: item.is_pub,
        body: def.body,
        params: def.params.clone(),
        param_tys: def.param_tys.clone(),
        ret: def.ret.clone(),
        ..FnSym::default()
    };
    let Some(body) = body else { return sym };
    let mut scope = BTreeMap::new();
    if let Some((_, owner_fq)) = owner.filter(|(_, fq)| !fq.starts_with('?')) {
        scope.insert("self".to_string(), Val::Typed(owner_fq.to_string()));
    }
    for (p, ty) in def.params.iter().zip(&def.param_tys) {
        let resolved = r.resolve_type_text(module, ty);
        if let (Some(fq), false) = (resolved.ty, resolved.mutex) {
            scope.insert(p.clone(), Val::Typed(fq));
        }
    }
    let params = def.params.iter().map(String::as_str).collect();
    let mut w = Walk { r, module, owner, params, scopes: vec![scope], sym };
    w.block(body);
    w.sym
}

/// Does `e` mention any of `names` (as a path segment, field, callee,
/// struct-literal field, or closure parameter)?
fn mentions(e: &Expr, names: &BTreeSet<&str>) -> bool {
    let mut hit = false;
    e.walk(&mut |x| {
        let idents: Vec<&String> = match x {
            Expr::Path { segs, .. } => segs.iter().collect(),
            Expr::Field { name, .. } => vec![name],
            Expr::Call { path, name, .. } => path.iter().chain([name]).collect(),
            Expr::StructLit { path, inits, .. } => {
                path.iter().chain(inits.iter().map(|i| &i.field)).collect()
            }
            Expr::Closure { params, .. } => params.iter().collect(),
            _ => Vec::new(),
        };
        hit |= idents.iter().any(|s| names.contains(s.as_str()));
    });
    hit
}

/// First string literal among call arguments, normalized into a
/// [`MetricReg`].
fn metric_path(args: &[Expr]) -> Option<MetricReg> {
    let mut first = None;
    for a in args {
        a.walk(&mut |x| {
            if let (None, Expr::Str { text, line }) = (&first, x) {
                let raw = strip_quotes(text);
                let constant = !raw.contains('{');
                first = Some(MetricReg { pattern: normalize_pattern(&raw), constant, line: *line });
            }
        });
    }
    first
}

/// Drop the quote fence of a string-literal token (plain and raw forms).
fn strip_quotes(text: &str) -> String {
    let first = text.find('"').map_or(0, |i| i + 1);
    let last = text.rfind('"').unwrap_or(text.len());
    if first <= last {
        text[first..last].to_string()
    } else {
        text.to_string()
    }
}

/// Collapse `{…}` format holes to `*`: `"{prefix}.ch{ch}.hits"` →
/// `"*.ch*.hits"`.
fn normalize_pattern(raw: &str) -> String {
    let mut out = String::new();
    let mut in_hole = false;
    for c in raw.chars() {
        match c {
            '{' if !in_hole => {
                in_hole = true;
                out.push('*');
            }
            '}' if in_hole => in_hole = false,
            _ if in_hole => {}
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_file(src: &str) -> FileSyms {
        let ws = Workspace::from_sources(&[("crates/x/src/lib.rs", src)]);
        ws.files.values().next().unwrap().clone()
    }

    #[test]
    fn builder_writes_are_param_derived() {
        let syms = one_file(
            "impl Cfg { pub fn with_seed(mut self, seed: u64) -> Self { self.seed = seed; self } }",
        );
        let f = &syms.fns[0];
        assert_eq!(f.owner.as_deref(), Some("Cfg"));
        assert_eq!(f.writes.len(), 1);
        assert!(f.writes[0].param_derived);
        assert_eq!(f.writes[0].field, "seed");
        assert!(f.writes[0].type_name.is_none());
    }

    #[test]
    fn struct_literal_inits_resolve_self_and_shorthand() {
        let syms =
            one_file("impl Cfg { fn base(name: u64) -> Self { Self { name, cores: 12, z: 0 } } }");
        let w = &syms.fns[0].writes;
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].type_name.as_deref(), Some("Cfg"));
        assert!(w[0].param_derived, "shorthand from a param is param-derived");
        assert!(!w[1].param_derived);
        assert!(w[2].zero_literal);
    }

    #[test]
    fn reads_writes_and_compound_assignments() {
        let syms =
            one_file("fn f(r: &mut R, x: u64) { r.total += x; let y = r.count; r.max = 9; }");
        let f = &syms.fns[0];
        assert!(f.field_reads.contains("total"), "compound assign reads too");
        assert!(f.field_reads.contains("count"));
        assert!(!f.field_reads.contains("max"));
        let fields: Vec<&str> = f.writes.iter().map(|w| w.field.as_str()).collect();
        assert_eq!(fields, ["total", "max"]);
        assert!(f.writes[0].param_derived && !f.writes[1].param_derived);
    }

    #[test]
    fn metric_paths_normalize_holes() {
        let syms = one_file(
            r#"fn e(reg: &mut M, p: &str) {
                reg.set_counter("engine.skipped_cycles", 1);
                reg.set_gauge(&format!("{p}.ch{ch}.tx_utilization"), v);
            }"#,
        );
        let regs = &syms.fns[0].metric_regs;
        assert_eq!(regs.len(), 2);
        assert!(regs[0].constant && regs[0].pattern == "engine.skipped_cycles");
        assert!(!regs[1].constant);
        assert_eq!(regs[1].pattern, "*.ch*.tx_utilization");
    }

    #[test]
    fn trait_method_sets_are_recorded() {
        let ws = Workspace::from_sources(&[(
            "crates/x/src/lib.rs",
            "pub trait TelemetrySink { fn on_miss(&mut self); fn on_reset(&mut self); }",
        )]);
        let methods = ws.trait_method_names("TelemetrySink").unwrap();
        assert_eq!(methods, ["on_miss", "on_reset"]);
    }

    #[test]
    fn test_mods_mark_their_fns() {
        let syms = one_file("mod tests { fn helper() { x.seed = 1; } } fn live() {}");
        let helper = syms.fns.iter().find(|f| f.name == "helper").unwrap();
        let live = syms.fns.iter().find(|f| f.name == "live").unwrap();
        assert!(helper.in_test && !live.in_test);
    }

    #[test]
    fn typed_reads_attribute_to_the_receiver_struct() {
        let ws = Workspace::from_sources(&[
            ("crates/dram/src/config.rs", "pub struct Timings { pub t_faw: u64 }"),
            (
                "crates/dram/src/bank.rs",
                "use crate::config::Timings;\nfn check(t: &Timings) -> u64 { t.t_faw }",
            ),
        ]);
        let f = &ws.files["crates/dram/src/bank.rs"].fns[0];
        assert_eq!(f.fq, "coaxial_dram::bank::check");
        assert!(f
            .reads_typed
            .contains(&("coaxial_dram::config::Timings".to_string(), "t_faw".to_string())));
        assert!(!f.reads_unresolved.contains("t_faw"), "resolved sites do not fall back");
        assert!(f.field_reads.contains("t_faw"), "bare layer still records everything");
    }

    #[test]
    fn resolved_calls_get_fq_edges_and_let_bindings_chain() {
        let ws = Workspace::from_sources(&[(
            "crates/system/src/runner.rs",
            "pub struct Cfg { pub seed: u64 }\n\
             impl Cfg { pub fn base() -> Self { Cfg { seed: 1 } } }\n\
             pub fn go() -> u64 { let c = Cfg::base(); c.seed }",
        )]);
        let go =
            ws.files["crates/system/src/runner.rs"].fns.iter().find(|f| f.name == "go").unwrap();
        assert!(go.calls_fq.contains("coaxial_system::runner::Cfg::base"));
        assert!(!go.calls_unresolved.contains("base"));
        assert!(go
            .reads_typed
            .contains(&("coaxial_system::runner::Cfg".to_string(), "seed".to_string())));
    }

    #[test]
    fn lock_regions_track_guards_through_fields_and_statics() {
        let ws = Workspace::from_sources(&[(
            "crates/gateway/src/state.rs",
            "pub struct Inner { pub running: usize }\n\
             pub struct Gateway { pub inner: Mutex<Inner> }\n\
             static GLOBAL: LazyLock<Mutex<Inner>> = LazyLock::new(mk);\n\
             impl Gateway {\n\
               pub fn tick(&self) {\n\
                 let mut inner = self.inner.lock().expect(\"poisoned\");\n\
                 inner.running += 1;\n\
                 drop(inner);\n\
                 let g = GLOBAL.lock().unwrap();\n\
               }\n\
             }",
        )]);
        let tick =
            ws.files["crates/gateway/src/state.rs"].fns.iter().find(|f| f.name == "tick").unwrap();
        assert_eq!(tick.lock_regions.len(), 2);
        let field = &tick.lock_regions[0];
        assert_eq!(field.mutex, "coaxial_gateway::state::Gateway::inner");
        assert_eq!(field.guard.as_deref(), Some("inner"));
        let global = &tick.lock_regions[1];
        assert_eq!(global.mutex, "coaxial_gateway::state::GLOBAL");
        assert!(field.end < global.start, "drop(inner) closed the first region");
        assert!(
            tick.lock_order.is_empty(),
            "sequential (non-nested) acquisitions record no order edge"
        );
        assert!(tick
            .reads_typed
            .contains(&("coaxial_gateway::state::Inner".to_string(), "running".to_string())));
    }

    #[test]
    fn temporary_guards_end_with_their_statement() {
        let ws = Workspace::from_sources(&[(
            "crates/gateway/src/state.rs",
            "pub struct S { pub n: Vec<u64> }\n\
             static A: LazyLock<Mutex<S>> = LazyLock::new(mk);\n\
             fn f() -> usize { let n = A.lock().unwrap().n.len(); let g = A.lock().unwrap(); n }",
        )]);
        let f = &ws.files["crates/gateway/src/state.rs"].fns[0];
        let [tmp, bound] = &f.lock_regions[..] else { panic!("{:?}", f.lock_regions) };
        assert!(tmp.guard.is_none() && tmp.end < bound.start, "the temporary dies at its `;`");
        assert_eq!(bound.guard.as_deref(), Some("g"));
        assert!(f.lock_order.is_empty(), "a dropped temporary is not held: {:?}", f.lock_order);
    }

    #[test]
    fn nested_lock_acquisitions_record_order_edges() {
        let ws = Workspace::from_sources(&[(
            "crates/system/src/server.rs",
            "pub struct S { pub n: u64 }\n\
             static A: LazyLock<Mutex<S>> = LazyLock::new(mk);\n\
             static B: LazyLock<Mutex<S>> = LazyLock::new(mk);\n\
             fn both() { let a = A.lock().unwrap(); let b = B.lock().unwrap(); }",
        )]);
        let both =
            ws.files["crates/system/src/server.rs"].fns.iter().find(|f| f.name == "both").unwrap();
        assert_eq!(both.lock_order.len(), 1);
        assert_eq!(both.lock_order[0].held, "coaxial_system::server::A");
        assert_eq!(both.lock_order[0].acquired, "coaxial_system::server::B");
    }
}
