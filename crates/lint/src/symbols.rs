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
//! `reads_typed`, lock regions): a [`crate::resolve::Resolver`] walk of
//! each body tracks a lightweight type for the expression chain under the
//! cursor (parameter/let/struct-literal bindings, field types, method
//! return types) and attributes each site to a fully-qualified symbol. A
//! site the tracker cannot prove lands in `calls_unresolved` /
//! `reads_unresolved` and falls back to bare-name linking — a `.seed`
//! read there counts as a read of every field named `seed`. That
//! over-approximation can only *hide* violations, never invent them.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Tok, TokKind};
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
    /// guards (shortened by `drop(guard)`), or to the end of the
    /// statement for temporaries.
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
#[derive(Debug, Clone)]
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
        collect_items(&ctx.items, &ctx.code, None, false, (r, module), &mut out);
        out
    }
}

fn collect_items(
    items: &[Item],
    code: &[Tok],
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
            ItemKind::Fn(def) => out.fns.push(analyze_fn(item, def, code, owner, in_test, sem)),
            ItemKind::Impl { items: inner, .. } => {
                let (r, module) = sem;
                let owner_fq = match r.resolve_path(module, &[&item.name], 16) {
                    Res::Type(fq) => fq,
                    _ => format!("?::{module}::{}", item.name),
                };
                collect_items(inner, code, Some((&item.name, &owner_fq)), in_test, sem, out);
            }
            ItemKind::Trait { items: inner } => {
                let methods: Vec<String> = inner
                    .iter()
                    .filter(|i| matches!(i.kind, ItemKind::Fn(_)))
                    .map(|i| i.name.clone())
                    .collect();
                out.trait_methods.insert(item.name.clone(), methods);
                let owner_fq = format!("{}::{}", sem.1, item.name);
                collect_items(inner, code, Some((&item.name, &owner_fq)), in_test, sem, out);
            }
            ItemKind::Mod { is_test, items: inner } => {
                let sub = format!("{}::{}", sem.1, item.name);
                collect_items(inner, code, owner, in_test || *is_test, (sem.0, &sub), out);
            }
            ItemKind::Const { .. } | ItemKind::Use { .. } => {}
        }
    }
}

/// The lightweight value the semantic walk tracks for the expression
/// chain under the cursor.
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
    /// A live `MutexGuard` over `id`, dereferencing to `inner`.
    Guard {
        id: String,
        inner: Option<String>,
    },
}

impl Val {
    fn type_fq(&self) -> Option<&str> {
        match self {
            Val::Typed(t) => Some(t),
            Val::Guard { inner: Some(t), .. } => Some(t),
            _ => None,
        }
    }
}

/// What to restore for `cur` when a paren/bracket group closes.
#[derive(Debug, Clone)]
enum Frame {
    /// Call arguments: restore the call's result value.
    Call(Val),
    /// Grouping parens: keep whatever the inside evaluated to.
    Keep,
    /// Indexing: element types are not tracked.
    Drop,
}

const DEPTH: usize = 16;

/// Per-body state of the resolved-path walk.
struct SemState<'a> {
    r: &'a Resolver,
    module: &'a str,
    owner_fq: Option<String>,
    scopes: Vec<BTreeMap<String, Val>>,
    /// Close index of each open `{}` block.
    blocks: Vec<usize>,
    frames: Vec<Frame>,
    cur: Val,
    /// Result value a just-classified call installs at its `(`.
    pending_call: Option<Val>,
    /// Simple `let [mut] name = …` binding awaiting its initializer value.
    pending_let: Option<String>,
    regions: Vec<LockRegion>,
}

impl<'a> SemState<'a> {
    fn resolve_here(&self, segs: &[&str]) -> Res {
        if segs.first() == Some(&"Self") {
            let Some(o) = &self.owner_fq else { return Res::Unknown };
            let mut cur = Res::Type(o.clone());
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

    fn bind(&mut self, name: &str, val: Val) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.insert(name.to_string(), val);
        }
    }

    fn lookup(&self, name: &str) -> Option<&Val> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn val_of_ty(&self, ty: &TyRes, mutex_id: Option<String>) -> Val {
        if ty.mutex {
            match mutex_id {
                Some(id) => Val::Mutex { id, inner: ty.ty.clone() },
                // A mutex we cannot name (local/parameter) is not tracked.
                None => Val::None,
            }
        } else {
            ty.ty.clone().map_or(Val::None, Val::Typed)
        }
    }

    fn head_val(&self, name: &str) -> Val {
        if name == "self" {
            return self.owner_fq.clone().map_or(Val::None, Val::Typed);
        }
        if let Some(v) = self.lookup(name) {
            return v.clone();
        }
        match self.resolve_here(&[name]) {
            Res::Const(fq) => {
                let ty = self.r.consts.get(&fq).cloned().unwrap_or_default();
                self.val_of_ty(&ty, Some(fq))
            }
            _ => Val::None,
        }
    }

    fn ret_val(&self, ret: &Option<String>) -> Val {
        ret.clone().map_or(Val::None, Val::Typed)
    }

    /// New mutex acquisition at token `j`: record order edges against the
    /// still-live regions, then open a region for it.
    fn lock_event(&mut self, code: &[Tok], j: usize, close: usize, id: String, sym: &mut FnSym) {
        let line = code[j].line;
        for reg in &self.regions {
            if reg.end > j {
                sym.lock_order.push(LockEdge {
                    held: reg.mutex.clone(),
                    acquired: id.clone(),
                    line,
                });
            }
        }
        let (end, guard) = match &self.pending_let {
            Some(name) => (self.blocks.last().copied().unwrap_or(close), Some(name.clone())),
            None => (rhs_span(code, j, close), None),
        };
        self.regions.push(LockRegion { mutex: id, line, start: j, end, guard });
    }

    /// Classify the call site `code[j] (`, which the bare walk already
    /// pushed onto `sym.call_sites`.
    fn on_call(&mut self, code: &[Tok], j: usize, close: usize, sym: &mut FnSym) {
        let name = code[j].text.clone();
        let prev_dot = j > 0 && code[j - 1].is_punct('.');
        let prev_colon = j > 0 && code[j - 1].is_punct(':');
        let mut fq: Option<String> = None;
        let mut resolved = false;
        let mut result = Val::None;
        if prev_dot {
            match (&self.cur.clone(), name.as_str()) {
                (Val::Mutex { id, inner }, "lock") => {
                    self.lock_event(code, j, close, id.clone(), sym);
                    result = Val::Guard { id: id.clone(), inner: inner.clone() };
                    resolved = true;
                }
                (g @ Val::Guard { .. }, "unwrap" | "expect") => {
                    result = (*g).clone();
                    resolved = true;
                }
                (v, "clone" | "to_owned" | "as_ref" | "borrow") => {
                    result = (*v).clone();
                    resolved = true;
                }
                (v, _) => {
                    if let Some(t) = v.type_fq().map(str::to_string) {
                        if let Some(info) = self.r.method(&t, &name) {
                            fq = Some(format!("{t}::{name}"));
                            resolved = true;
                            result = self.ret_val(&info.ret);
                        }
                    }
                }
            }
        } else if prev_colon {
            match self.resolve_here(&path_back(code, j)) {
                Res::Fn(f) => {
                    result = self.ret_val(&self.r.fns.get(&f).and_then(|i| i.ret.clone()));
                    fq = Some(f);
                    resolved = true;
                }
                Res::Method { owner, name: m } => {
                    let ret = self.r.method(&owner, &m).and_then(|i| i.ret.clone());
                    result = self.ret_val(&ret);
                    fq = Some(format!("{owner}::{m}"));
                    resolved = true;
                }
                // Tuple-variant / tuple-struct constructors yield the type.
                Res::Variant { owner, .. } | Res::Type(owner) => {
                    result = Val::Typed(owner);
                    resolved = true;
                }
                _ => {}
            }
        } else if name == "drop" {
            if let Some(arg) = code.get(j + 2).filter(|t| {
                t.kind == TokKind::Ident && code.get(j + 3).is_some_and(|n| n.is_punct(')'))
            }) {
                for reg in &mut self.regions {
                    if reg.guard.as_deref() == Some(arg.text.as_str()) && reg.end > j {
                        reg.end = j;
                    }
                }
            }
            resolved = true;
        } else {
            match self.resolve_here(&[&name]) {
                Res::Fn(f) => {
                    result = self.ret_val(&self.r.fns.get(&f).and_then(|i| i.ret.clone()));
                    fq = Some(f);
                    resolved = true;
                }
                Res::Type(t) => {
                    // Tuple-struct constructor.
                    result = Val::Typed(t);
                    resolved = true;
                }
                _ => {}
            }
        }
        if let Some(fq) = &fq {
            sym.calls_fq.insert(fq.clone());
        }
        if !resolved {
            sym.calls_unresolved.insert(name);
        }
        if let Some(site) = sym.call_sites.last_mut() {
            site.fq = fq;
            site.resolved = resolved;
        }
        self.pending_call = Some(result);
        self.cur = Val::None;
    }

    /// Classify the field site `. name` whose bare read/write the caller
    /// already recorded.
    fn on_field(&mut self, name: &str, is_write: bool, compound: bool, sym: &mut FnSym) {
        let recv = self.cur.type_fq().map(str::to_string);
        match recv {
            Some(t) if self.r.struct_has_field(&t, name) => {
                if is_write {
                    if let Some(w) = sym.writes.last_mut() {
                        w.type_fq = Some(t.clone());
                    }
                    if compound {
                        sym.reads_typed.insert((t, name.to_string()));
                    }
                    self.cur = Val::None;
                } else {
                    sym.reads_typed.insert((t.clone(), name.to_string()));
                    let ty = self.r.field_ty(&t, name).cloned().unwrap_or_default();
                    self.cur = self.val_of_ty(&ty, Some(format!("{t}::{name}")));
                }
            }
            _ => {
                if !is_write || compound {
                    sym.reads_unresolved.insert(name.to_string());
                }
                self.cur = Val::None;
            }
        }
    }

    /// The generic per-token step: scopes, frames, `let` headers, chain
    /// heads, and value resets. Call/field idents are skipped — their
    /// dedicated hooks already ran.
    fn on_token(&mut self, code: &[Tok], j: usize, close: usize, sym: &mut FnSym) {
        let t = &code[j];
        match t.kind {
            TokKind::Punct => {
                match t.text.chars().next().unwrap_or(' ') {
                    '{' => {
                        self.blocks.push(matching(code, j).min(close));
                        self.scopes.push(BTreeMap::new());
                        self.pending_let = None;
                        self.cur = Val::None;
                    }
                    '}' => {
                        self.blocks.pop();
                        self.scopes.pop();
                        self.cur = Val::None;
                    }
                    '(' => {
                        let f = match self.pending_call.take() {
                            Some(v) => Frame::Call(v),
                            None => Frame::Keep,
                        };
                        self.frames.push(f);
                        self.cur = Val::None;
                    }
                    ')' => match self.frames.pop() {
                        Some(Frame::Call(v)) => self.cur = v,
                        Some(Frame::Drop) => self.cur = Val::None,
                        Some(Frame::Keep) | None => {}
                    },
                    '[' => {
                        self.frames.push(Frame::Drop);
                        self.cur = Val::None;
                    }
                    ']' => {
                        self.frames.pop();
                        self.cur = Val::None;
                    }
                    ';' => {
                        if let Some(name) = self.pending_let.take() {
                            if self.cur != Val::None {
                                let v = self.cur.clone();
                                self.bind(&name, v);
                            }
                        }
                        self.cur = Val::None;
                    }
                    // `.`/`?` continue a chain; `:` appears inside paths;
                    // `&`/`*` are value-transparent enough (the next ident
                    // re-heads the chain anyway).
                    '.' | '?' | ':' | '&' | '*' => {}
                    _ => self.cur = Val::None,
                }
            }
            TokKind::Ident => {
                let next = code.get(j + 1);
                let is_call =
                    next.is_some_and(|n| n.is_punct('(')) && !parser::is_call_keyword(&t.text);
                let after_dot = j > 0 && code[j - 1].is_punct('.');
                if is_call || after_dot {
                    return; // handled by on_call / on_field
                }
                if t.text == "let" {
                    self.on_let(code, j, close);
                    return;
                }
                let mid_path = next.is_some_and(|n| n.is_punct(':'))
                    && code.get(j + 2).is_some_and(|n| n.is_punct(':'));
                if mid_path {
                    return; // the final segment classifies the path
                }
                let after_path = j > 1 && code[j - 1].is_punct(':') && code[j - 2].is_punct(':');
                if after_path {
                    // Path in value position: `Kind::Variant`, `m::CONST`.
                    self.cur = match self.resolve_here(&path_back(code, j)) {
                        Res::Variant { owner, .. } => Val::Typed(owner),
                        Res::Const(fq) => {
                            let ty = self.r.consts.get(&fq).cloned().unwrap_or_default();
                            self.val_of_ty(&ty, Some(fq))
                        }
                        _ => Val::None,
                    };
                    return;
                }
                if next.is_some_and(|n| n.is_punct('{'))
                    && is_type_like(&t.text)
                    && !(j > 0 && struct_literal_blockers(&code[j - 1]))
                {
                    // Struct literal head: bind a pending let to the type.
                    if let (Some(name), Res::Type(fq)) =
                        (self.pending_let.take(), self.resolve_here(&[&t.text]))
                    {
                        self.bind(&name, Val::Typed(fq));
                    }
                    self.cur = Val::None;
                    return;
                }
                let _ = sym;
                self.cur = self.head_val(&t.text);
            }
            _ => self.cur = Val::None,
        }
    }

    /// `let [mut] name [: Ty] = …` — bind annotated types immediately;
    /// otherwise remember the name so the initializer's value (or lock
    /// acquisition) can bind it. Pattern lets are not tracked.
    fn on_let(&mut self, code: &[Tok], j: usize, close: usize) {
        self.pending_let = None;
        let mut k = j + 1;
        if code.get(k).is_some_and(|t| t.is_ident("mut")) {
            k += 1;
        }
        let Some(name_tok) = code.get(k).filter(|t| t.kind == TokKind::Ident) else { return };
        let name = name_tok.text.clone();
        // `if let Some(x)` / `let Foo { .. }` / `let Kind::V(..)` are
        // patterns, not bindings of the scrutinee value.
        let next = code.get(k + 1);
        if next.is_some_and(|t| t.is_punct('(') || t.is_punct('{'))
            || (next.is_some_and(|t| t.is_punct(':'))
                && code.get(k + 2).is_some_and(|t| t.is_punct(':')))
        {
            return;
        }
        let has_ty = code.get(k + 1).is_some_and(|t| t.is_punct(':'))
            && code.get(k + 2).is_none_or(|t| !t.is_punct(':'));
        if has_ty {
            let mut ty_toks: Vec<&str> = Vec::new();
            let mut m = k + 2;
            let mut depth = 0i32;
            while m < close {
                let tt = &code[m];
                if depth == 0 && (tt.is_punct('=') || tt.is_punct(';')) {
                    break;
                }
                if tt.is_punct('<') {
                    depth += 1;
                } else if tt.is_punct('>') {
                    depth -= 1;
                }
                ty_toks.push(&tt.text);
                m += 1;
            }
            let ty = self.r.resolve_type_text(self.module, &ty_toks.join(" "));
            let v = self.val_of_ty(&ty, None);
            if v != Val::None {
                self.bind(&name, v);
            }
        } else {
            self.pending_let = Some(name);
        }
    }
}

/// Walk a `::`-separated path backwards from its final ident at `j`.
fn path_back(code: &[Tok], j: usize) -> Vec<&str> {
    let mut segs = vec![code[j].text.as_str()];
    let mut k = j;
    while k >= 3
        && code[k - 1].is_punct(':')
        && code[k - 2].is_punct(':')
        && code[k - 3].kind == TokKind::Ident
    {
        k -= 3;
        segs.insert(0, code[k].text.as_str());
    }
    segs
}

#[allow(clippy::too_many_lines)]
fn analyze_fn(
    item: &Item,
    def: &parser::FnDef,
    code: &[Tok],
    owner: Option<(&str, &str)>,
    in_test: bool,
    (r, module): (&Resolver, &str),
) -> FnSym {
    let fq = match owner {
        Some((_, owner_fq)) => format!("{owner_fq}::{}", item.name),
        None => format!("{module}::{}", item.name),
    };
    let mut sym = FnSym {
        name: item.name.clone(),
        owner: owner.map(|(o, _)| o.to_string()),
        fq,
        line: item.line,
        in_test,
        is_pub: item.is_pub,
        body: def.body,
        params: def.params.clone(),
        calls_fq: BTreeSet::new(),
        calls_unresolved: BTreeSet::new(),
        field_reads: BTreeSet::new(),
        reads_typed: BTreeSet::new(),
        reads_unresolved: BTreeSet::new(),
        writes: Vec::new(),
        metric_regs: Vec::new(),
        call_sites: Vec::new(),
        lock_regions: Vec::new(),
        lock_order: Vec::new(),
    };
    let Some((open, close)) = def.body else { return sym };
    let params: BTreeSet<&str> = def.params.iter().map(String::as_str).collect();

    let mut scope = BTreeMap::new();
    if let Some((_, owner_fq)) = owner {
        if !owner_fq.starts_with('?') {
            scope.insert("self".to_string(), Val::Typed(owner_fq.to_string()));
        }
    }
    for (p, ty) in def.params.iter().zip(&def.param_tys) {
        let resolved = r.resolve_type_text(module, ty);
        if let Some(fq) = resolved.ty {
            if !resolved.mutex {
                scope.insert(p.clone(), Val::Typed(fq));
            }
        }
    }
    let mut sem = SemState {
        r,
        module,
        owner_fq: owner.map(|(_, f)| f.to_string()).filter(|f| !f.starts_with('?')),
        scopes: vec![scope],
        blocks: Vec::new(),
        frames: Vec::new(),
        cur: Val::None,
        pending_call: None,
        pending_let: None,
        regions: Vec::new(),
    };

    let mut j = open + 1;
    while j < close {
        let t = &code[j];
        // Call site: `name (` — keywords and macro bangs excluded.
        if t.kind == TokKind::Ident
            && code.get(j + 1).is_some_and(|n| n.is_punct('('))
            && !parser::is_call_keyword(&t.text)
        {
            sym.call_sites.push(CallSite {
                pos: j,
                line: t.line,
                name: t.text.clone(),
                fq: None,
                resolved: false,
            });
            if METRIC_METHODS.contains(&t.text.as_str()) {
                if let Some(reg) = first_str_arg(code, j + 1, close) {
                    sym.metric_regs.push(reg);
                }
            }
            sem.on_call(code, j, close, &mut sym);
        }
        // Field access: `.name` (a following `(` makes it a method call,
        // handled by the call branch when the walk reaches it).
        if t.is_punct('.')
            && code.get(j + 1).is_some_and(|n| n.kind == TokKind::Ident)
            && code.get(j + 2).is_none_or(|n| !n.is_punct('('))
            && !(j > 0 && code[j - 1].is_punct('.'))
        {
            let name = &code[j + 1];
            // Tuple-index access `.0` lexes as Num, so `name` is a real
            // field here. Classify write vs. read by the next token.
            let after = j + 2;
            let plain_assign = code.get(after).is_some_and(|n| n.is_punct('='))
                && code.get(after + 1).is_none_or(|n| !n.is_punct('='));
            let compound_assign = code.get(after).is_some_and(|n| {
                matches!(n.text.as_str(), "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^")
                    && n.kind == TokKind::Punct
            }) && code.get(after + 1).is_some_and(|n| n.is_punct('='))
                // `a.f < b` / `a.f >> 2` are reads, not `<<=`-style
                // compounds; require the `=` directly after one operator.
                && code.get(after + 2).is_none_or(|n| !n.is_punct('='));
            if plain_assign || compound_assign {
                let rhs_start = if plain_assign { after + 1 } else { after + 2 };
                let rhs = rhs_span(code, rhs_start, close);
                sym.writes.push(FieldWrite {
                    type_name: None,
                    type_fq: None,
                    field: name.text.clone(),
                    param_derived: mentions_any(&code[rhs_start..rhs], &params),
                    zero_literal: is_zero_literal(&code[rhs_start..rhs]),
                    line: name.line,
                });
                if compound_assign {
                    sym.field_reads.insert(name.text.clone());
                }
            } else {
                sym.field_reads.insert(name.text.clone());
            }
            sem.on_field(&name.text, plain_assign || compound_assign, compound_assign, &mut sym);
        }
        // Struct literal: `TypeName {` / `Self {` in expression position.
        if t.kind == TokKind::Ident
            && code.get(j + 1).is_some_and(|n| n.is_punct('{'))
            && is_type_like(&t.text)
            && !(j > 0 && struct_literal_blockers(&code[j - 1]))
        {
            let ty = if t.text == "Self" {
                owner.map(|(o, _)| o.to_string())
            } else {
                Some(t.text.clone())
            };
            if let Some(ty) = ty {
                let head = if t.text == "Self" { "Self" } else { ty.as_str() };
                let type_fq = match sem.resolve_here(&[head]) {
                    Res::Type(fq) => Some(fq),
                    _ => None,
                };
                let lit_close = matching(code, j + 1);
                collect_literal_inits(
                    code,
                    j + 2,
                    lit_close,
                    &ty,
                    type_fq.as_deref(),
                    &params,
                    &mut sym.writes,
                );
            }
        }
        sem.on_token(code, j, close, &mut sym);
        j += 1;
    }
    sym.lock_regions = sem.regions;
    sym
}

/// `true` for idents that can head a struct literal (CamelCase or `Self`).
fn is_type_like(name: &str) -> bool {
    name == "Self" || name.chars().next().is_some_and(char::is_uppercase)
}

/// Keywords before `Ident {` that make it a block header, not a literal.
fn struct_literal_blockers(prev: &Tok) -> bool {
    prev.is_ident("impl")
        || prev.is_ident("for")
        || prev.is_ident("trait")
        || prev.is_ident("mod")
        || prev.is_ident("struct")
        || prev.is_ident("enum")
}

/// Field initializers at depth 1 of a struct literal. Nested literals are
/// collected when the outer walk reaches them, so only depth-1 fields are
/// taken here. A `..base` functional update ends the initializer list.
fn collect_literal_inits(
    code: &[Tok],
    start: usize,
    end: usize,
    ty: &str,
    type_fq: Option<&str>,
    params: &BTreeSet<&str>,
    writes: &mut Vec<FieldWrite>,
) {
    let mut j = start;
    while j < end {
        let t = &code[j];
        if t.is_punct('.') && code.get(j + 1).is_some_and(|n| n.is_punct('.')) {
            return; // ..rest
        }
        if t.is_punct('#') {
            j += 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            if code.get(j + 1).is_some_and(|n| n.is_punct(':'))
                && code.get(j + 2).is_none_or(|n| !n.is_punct(':'))
            {
                let value_end = rhs_span_until_comma(code, j + 2, end);
                writes.push(FieldWrite {
                    type_name: Some(ty.to_string()),
                    type_fq: type_fq.map(str::to_string),
                    field: t.text.clone(),
                    param_derived: mentions_any(&code[j + 2..value_end], params),
                    zero_literal: is_zero_literal(&code[j + 2..value_end]),
                    line: t.line,
                });
                j = value_end + 1;
                continue;
            }
            if code.get(j + 1).is_none_or(|n| n.is_punct(',') || n.is_punct('}')) {
                // Shorthand `field,` — initialized from the binding of the
                // same name.
                writes.push(FieldWrite {
                    type_name: Some(ty.to_string()),
                    type_fq: type_fq.map(str::to_string),
                    field: t.text.clone(),
                    param_derived: params.contains(t.text.as_str()),
                    zero_literal: false,
                    line: t.line,
                });
                j += 2;
                continue;
            }
        }
        j += 1;
    }
}

/// End of an assignment RHS: the `;` at depth 0, or `end`.
fn rhs_span(code: &[Tok], start: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = start;
    while j < end {
        let t = &code[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            if depth == 0 {
                return j;
            }
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return j;
        }
        j += 1;
    }
    end
}

/// End of a struct-literal field value: the `,` at depth 0, or `end`.
fn rhs_span_until_comma(code: &[Tok], start: usize, end: usize) -> usize {
    let (mut par, mut ang, mut br) = (0i32, 0i32, 0i32);
    let mut j = start;
    while j < end {
        let t = &code[j];
        if t.is_punct(',') && par == 0 && ang <= 0 && br == 0 {
            return j;
        }
        if t.is_punct('(') || t.is_punct('[') {
            par += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            par -= 1;
        } else if t.is_punct('<') {
            ang += 1;
        } else if t.is_punct('>') && !(j > 0 && code[j - 1].is_punct('-')) {
            ang -= 1;
        } else if t.is_punct('{') {
            br += 1;
        } else if t.is_punct('}') {
            if br == 0 {
                return j;
            }
            br -= 1;
        }
        j += 1;
    }
    end
}

fn mentions_any(toks: &[Tok], names: &BTreeSet<&str>) -> bool {
    toks.iter().any(|t| t.kind == TokKind::Ident && names.contains(t.text.as_str()))
}

fn is_zero_literal(toks: &[Tok]) -> bool {
    toks.len() == 1 && toks[0].kind == TokKind::Num && toks[0].text == "0"
}

fn matching(code: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < code.len() {
        if code[j].is_punct('{') {
            depth += 1;
        } else if code[j].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    code.len().saturating_sub(1)
}

/// First string literal inside the argument list opening at `open`,
/// normalized into a [`MetricReg`].
fn first_str_arg(code: &[Tok], open: usize, limit: usize) -> Option<MetricReg> {
    let mut depth = 0i32;
    let mut j = open;
    while j < limit {
        let t = &code[j];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return None;
            }
        } else if t.kind == TokKind::Str {
            let raw = strip_quotes(&t.text);
            let constant = !raw.contains('{');
            return Some(MetricReg { pattern: normalize_pattern(&raw), constant, line: t.line });
        }
        j += 1;
    }
    None
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
