//! Per-function control-flow extraction and dataflow evaluation.
//!
//! Built on the token stream from [`crate::lexer`], this module recovers
//! just enough structure for path-sensitive lints:
//!
//! * **Item model** ([`FileModel`]) — every `impl` block (with its self
//!   type, trait, and trait argument), every `fn` (with its owner, `&mut
//!   self`-ness, and parameter roles), every `Actor` impl's `TYPE_NAME`
//!   and `declared_calls()` entries, and every `struct`/`enum` with its
//!   body split into field segments ([`TypeDef`]) — the one struct
//!   scanner the reply, lock-class, unordered-class and layout passes
//!   all filter. Items are found anywhere, including impls nested
//!   inside test functions.
//! * **Flow tree** ([`Flow`]) — each function body parsed into
//!   sequences, branches (`if`/`else` chains, `match`, `let..else`),
//!   loops, `return`s, and `?` exits. Closure bodies are flattened into
//!   straight-line code: for these lints a closure's tokens *happening*
//!   matters, its exits do not.
//! * **Evaluator** ([`eval_flow`]) — propagates a small state set over
//!   the tree (branches fork and re-merge, loops run zero-or-once) and
//!   reports the state at every function exit. It is the only flow
//!   walk in the crate: an analysis supplies a [`Transfer`] — a closure
//!   over token runs, or a context that also wants the scope-exit hook
//!   (guard liveness in [`crate::locks`]) or the `return` hook (reply
//!   values in [`crate::effects`]).
//!
//! One analysis lives here because it is pure per-function dataflow: the
//! **reply obligation** check (a handler of a message carrying `ReplyTo`
//! sinks with a path that never touches the sink). Send-site extraction
//! builds on the same model in [`crate::sendsites`].
//!
//! Soundness limits (by design — see DESIGN.md §9): intra-procedural
//! only, no macro expansion, no type inference. The parser is a
//! recognizer for idiomatic workspace code, not for all of Rust; on
//! unrecognized shapes it degrades to treating tokens as straight-line
//! code, which errs toward *missing* findings, never toward crashing.

use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use crate::lexer::{lex, skip_group, Tok, TokKind};
use crate::lint::{Finding, Rule};

// ---------------------------------------------------------------- model

/// Parsed view of one source file.
pub struct FileModel {
    /// Source path (reporting only).
    pub path: PathBuf,
    /// The token stream.
    pub toks: Vec<Tok>,
    /// Raw source lines (1-based access via `line as usize - 1`).
    pub lines: Vec<String>,
    /// Every function with a body, in source order.
    pub fns: Vec<FnItem>,
    /// Every `impl Actor for T` found, with name and declarations.
    pub actors: Vec<ActorInfo>,
    /// Every `struct`/`enum` definition, in source order.
    pub types: Vec<TypeDef>,
    /// Line → `aodb-lint: allow(...)` rule names on that line.
    pub allows: HashMap<u32, Vec<String>>,
}

/// One `impl Actor for T` block.
pub struct ActorInfo {
    /// Rust type identifier (`IngestGateway`).
    pub type_ident: String,
    /// `TYPE_NAME` constant value (`"shm.ingest-gateway"`), if present.
    pub type_name: Option<String>,
    /// Entries parsed out of `declared_calls()`.
    pub decls: Vec<Decl>,
}

/// One `CallDecl` entry from a `declared_calls()` body.
#[derive(Clone, Debug)]
pub struct Decl {
    /// True for `CallDecl::call(..)`, false for `send(..)`/`send_any()`.
    pub is_call: bool,
    /// Target actor type name; `"*"` for `send_any()`.
    pub to: String,
    /// Source line of the entry.
    pub line: u32,
}

/// One `struct` or `enum` definition with its body split into fields.
pub struct TypeDef {
    /// Type identifier.
    pub name: String,
    /// Line of the name.
    pub line: u32,
    /// True for an `enum` (the segments are variants, not fields).
    pub is_enum: bool,
    /// True for a tuple struct (the segments are positional).
    pub tuple: bool,
    /// Token range of each top-level comma-separated body segment — one
    /// per field or variant, attributes and visibility included. Unit
    /// structs have no body and are not recorded at all.
    pub fields: Vec<Range<usize>>,
}

/// The impl block owning a method.
#[derive(Clone, Debug)]
pub struct Owner {
    /// Self type identifier (last path segment).
    pub type_ident: String,
    /// Trait identifier for trait impls (`Handler`, `Actor`), else None.
    pub trait_ident: Option<String>,
    /// Last path segment of the trait's first type argument
    /// (`Handler<CollarReport>` → `CollarReport`).
    pub trait_arg: Option<String>,
}

/// One function (or method) with a body.
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Enclosing impl block, if any.
    pub owner: Option<Owner>,
    /// Whether the receiver is `&mut self`.
    pub has_mut_self: bool,
    /// The non-`self` parameters: name and type token range.
    pub params: Vec<(String, Range<usize>)>,
    /// Names of parameters whose type mentions `ActorContext`.
    pub ctx_params: Vec<String>,
    /// Parsed body.
    pub body: Flow,
    /// Token index range of the body's interior.
    pub body_range: (usize, usize),
    /// Line of the body's closing brace (fall-through exit line).
    pub end_line: u32,
}

/// Where one field class was declared.
pub struct ClassDef {
    /// Owning struct identifier (`static` for a static item).
    pub owner: String,
    /// Field name.
    pub field: String,
    /// Index into the corpus' file list.
    pub file: usize,
    /// Line of the declaration.
    pub line: u32,
}

/// A corpus-wide registry of the struct fields of one kind — lock sites
/// for lockcheck, unordered collections for replaycheck — each a *class*
/// named `Owner.field`. Receivers resolve against it by owner-qualified
/// field first and corpus-unique field name second.
#[derive(Default)]
pub struct FieldClasses {
    /// Class id → display name (`Owner.field`). A pass may append
    /// display-only classes that have no declaration in `defs`.
    pub names: Vec<String>,
    /// Declarations of the interned classes, id-indexed.
    pub defs: Vec<ClassDef>,
    by_owner_field: HashMap<(String, String), u16>,
    by_field: HashMap<String, Vec<u16>>,
}

impl FieldClasses {
    /// Interns a class for every named struct field in `files` whose
    /// type mentions one of `type_idents`.
    pub fn of_fields(files: &[Rc<FileModel>], type_idents: &[&str]) -> FieldClasses {
        let mut classes = FieldClasses::default();
        for (fi, model) in files.iter().enumerate() {
            for def in &model.types {
                for (field, ty) in model.named_fields(def) {
                    if model.mentions(ty, type_idents) {
                        classes.intern(&def.name, &field.text, fi, field.line);
                    }
                }
            }
        }
        classes
    }

    /// The id of class `owner.field`, registering it on first sight.
    pub fn intern(&mut self, owner: &str, field: &str, file: usize, line: u32) -> u16 {
        if let Some(id) = self.by_owner_field(owner, field) {
            return id;
        }
        let id = self.names.len() as u16;
        self.names.push(format!("{owner}.{field}"));
        self.defs.push(ClassDef {
            owner: owner.to_string(),
            field: field.to_string(),
            file,
            line,
        });
        self.by_owner_field
            .insert((owner.to_string(), field.to_string()), id);
        self.by_field.entry(field.to_string()).or_default().push(id);
        id
    }

    /// `(owner, field)` lookup.
    pub fn by_owner_field(&self, owner: &str, field: &str) -> Option<u16> {
        self.by_owner_field
            .get(&(owner.to_string(), field.to_string()))
            .copied()
    }

    /// The unique class with this field name, if unambiguous.
    pub fn unique_field(&self, field: &str) -> Option<u16> {
        match self.by_field.get(field).map(Vec::as_slice) {
            Some([one]) => Some(*one),
            _ => None,
        }
    }
}

/// A corpus-wide function-name index: name → every `(file, fn)` index
/// pair defining it.
pub(crate) type FnIndex = HashMap<String, Vec<(usize, usize)>>;

/// Name-based callee resolution, the same envelope for every pass that
/// follows a call: a single candidate in the calling file wins;
/// otherwise the name must be corpus-unique.
pub(crate) fn resolve_callee(index: &FnIndex, file: usize, name: &str) -> Option<(usize, usize)> {
    let candidates = index.get(name)?;
    let mut same_file = candidates.iter().filter(|(cf, _)| *cf == file);
    match (same_file.next(), same_file.next()) {
        (Some(one), None) => Some(*one),
        (None, _) if candidates.len() == 1 => Some(candidates[0]),
        _ => None,
    }
}

// ------------------------------------------------------------ flow tree

/// A sequence of control-flow steps.
#[derive(Debug, Default)]
pub struct Flow(pub Vec<Step>);

/// One step in a [`Flow`].
#[derive(Debug)]
pub enum Step {
    /// Straight-line code: token indices into [`FileModel::toks`].
    Run(Vec<usize>),
    /// A plain `{ .. }` block (or struct literal) in statement position.
    /// Control flow runs straight through, but scope-sensitive analyses
    /// (guard liveness in [`crate::locks`]) need the boundary.
    Scope(Flow),
    /// A fork: `if`/`else` chain, `match`, or `let .. else`.
    Branch {
        /// One flow per arm.
        arms: Vec<Flow>,
        /// True when one arm always runs (`match`, `if` with final
        /// `else`); false when fall-through past all arms is possible.
        exhaustive: bool,
    },
    /// `for`/`while`/`loop` body (evaluated zero-or-once).
    Loop(Flow),
    /// `return expr;` — expr tokens run, then the function exits.
    Return {
        /// Token indices of the returned expression.
        toks: Vec<usize>,
        /// Line of the `return` keyword.
        line: u32,
    },
    /// A `?` operator: the function may exit here with an error.
    Try {
        /// Line of the `?`.
        line: u32,
    },
}

/// How a path left the function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitKind {
    /// Explicit `return`.
    Return,
    /// `?` error propagation.
    Try,
    /// Fell off the end of the body (tail expression).
    End,
}

/// A dataflow state observed at a function exit.
pub struct Exit<S> {
    /// The state on that path.
    pub state: S,
    /// How the path exited.
    pub kind: ExitKind,
    /// Exit line.
    pub line: u32,
}

/// Bound on the per-point state set; beyond this, extra states are
/// dropped (the analyses stay linting-sound: they may miss, not crash).
const MAX_STATES: usize = 32;

/// The analysis-specific half of [`eval_flow`]: how a path state changes
/// along the tree. A plain `FnMut(&mut S, &[usize])` closure is a
/// `Transfer` that only looks at token runs.
pub trait Transfer<S> {
    /// Applies a straight-line token run to one path state. `depth` is
    /// the nesting of blocks, branch arms and loop bodies around it.
    fn run(&mut self, state: &mut S, toks: &[usize], depth: u16);

    /// A block, branch arm or loop body nested in `depth` has ended on
    /// this path (locals bound inside it are gone).
    fn exit_scope(&mut self, _state: &mut S, _depth: u16) {}

    /// The path leaves through `return <toks>`; called after
    /// [`Transfer::run`] has seen the expression.
    fn on_return(&mut self, _state: &mut S, _toks: &[usize]) {}
}

impl<S, F: FnMut(&mut S, &[usize])> Transfer<S> for F {
    fn run(&mut self, state: &mut S, toks: &[usize], _depth: u16) {
        self(state, toks)
    }
}

/// Evaluates `flow` with the given transfer over every path, returning
/// the state at each exit.
pub fn eval_flow<S: Clone + PartialEq>(
    flow: &Flow,
    init: S,
    end_line: u32,
    transfer: &mut impl Transfer<S>,
) -> Vec<Exit<S>> {
    let mut exits = Vec::new();
    let finals = eval_seq(flow, vec![init], 0, &mut exits, transfer);
    for state in finals {
        exits.push(Exit {
            state,
            kind: ExitKind::End,
            line: end_line,
        });
    }
    exits
}

fn eval_seq<S: Clone + PartialEq>(
    flow: &Flow,
    mut states: Vec<S>,
    depth: u16,
    exits: &mut Vec<Exit<S>>,
    transfer: &mut impl Transfer<S>,
) -> Vec<S> {
    for step in &flow.0 {
        match step {
            Step::Run(idxs) => {
                for s in &mut states {
                    transfer.run(s, idxs, depth);
                }
            }
            Step::Scope(body) => {
                states = eval_nested(body, states, depth, exits, transfer);
            }
            Step::Return { toks, line } => {
                for mut s in states.drain(..) {
                    transfer.run(&mut s, toks, depth);
                    transfer.on_return(&mut s, toks);
                    exits.push(Exit {
                        state: s,
                        kind: ExitKind::Return,
                        line: *line,
                    });
                }
            }
            Step::Try { line } => {
                for s in &states {
                    exits.push(Exit {
                        state: s.clone(),
                        kind: ExitKind::Try,
                        line: *line,
                    });
                }
            }
            Step::Branch { arms, exhaustive } => {
                let mut out: Vec<S> = if *exhaustive {
                    Vec::new()
                } else {
                    states.clone()
                };
                for arm in arms {
                    for s in eval_nested(arm, states.clone(), depth, exits, transfer) {
                        if !out.contains(&s) {
                            out.push(s);
                        }
                    }
                }
                states = out;
            }
            Step::Loop(body) => {
                for s in eval_nested(body, states.clone(), depth, exits, transfer) {
                    if !states.contains(&s) {
                        states.push(s);
                    }
                }
            }
        }
        states.dedup_by(|a, b| a == b);
        states.truncate(MAX_STATES);
        if states.is_empty() {
            break; // every path already exited
        }
    }
    states
}

/// Runs a body nested in `depth` (block, branch arm, loop body) and
/// closes its scope on every path that falls out of it.
fn eval_nested<S: Clone + PartialEq>(
    body: &Flow,
    from: Vec<S>,
    depth: u16,
    exits: &mut Vec<Exit<S>>,
    transfer: &mut impl Transfer<S>,
) -> Vec<S> {
    let mut out = eval_seq(body, from, depth + 1, exits, transfer);
    for s in &mut out {
        transfer.exit_scope(s, depth);
    }
    out
}

// --------------------------------------------------------------- parser

impl FileModel {
    /// Lexes and parses one source file.
    pub fn parse(path: &Path, src: &str) -> FileModel {
        let mut model = FileModel {
            path: path.to_path_buf(),
            toks: lex(src),
            lines: src.lines().map(str::to_string).collect(),
            fns: Vec::new(),
            actors: Vec::new(),
            types: Vec::new(),
            allows: HashMap::new(),
        };
        for (idx, raw) in src.lines().enumerate() {
            let allows = crate::lint::parse_allows(raw);
            if !allows.is_empty() {
                model.allows.insert(
                    idx as u32 + 1,
                    allows.into_iter().map(str::to_string).collect(),
                );
            }
        }
        let end = model.toks.len();
        let mut parser = Parser { model: &mut model };
        parser.scan_items(0, end, None);
        model.collect_decls();
        model
    }

    /// Post-pass: scan every `declared_calls()` body for `CallDecl`
    /// constructors and attach them to the owning actor.
    fn collect_decls(&mut self) {
        let mut by_type: Vec<(String, Vec<Decl>)> = Vec::new();
        for f in &self.fns {
            if f.name != "declared_calls" {
                continue;
            }
            let Some(owner) = &f.owner else { continue };
            if owner.trait_ident.as_deref() != Some("Actor") {
                continue;
            }
            let mut decls = Vec::new();
            let (start, end) = f.body_range;
            let mut i = start;
            while i < end {
                if self.toks[i].is_ident("CallDecl")
                    && i + 3 < end
                    && self.toks[i + 1].is_punct(':')
                    && self.toks[i + 2].is_punct(':')
                    && self.toks[i + 3].kind == TokKind::Ident
                {
                    let kw = &self.toks[i + 3];
                    let line = kw.line;
                    let target = self.toks[i + 4..end.min(i + 8)]
                        .iter()
                        .find(|t| t.kind == TokKind::Str)
                        .map(|t| t.text.clone());
                    match (kw.text.as_str(), target) {
                        ("call", Some(to)) => decls.push(Decl {
                            is_call: true,
                            to,
                            line,
                        }),
                        ("send", Some(to)) => decls.push(Decl {
                            is_call: false,
                            to,
                            line,
                        }),
                        ("send_any", _) => decls.push(Decl {
                            is_call: false,
                            to: "*".to_string(),
                            line,
                        }),
                        _ => {}
                    }
                    i += 4;
                    continue;
                }
                i += 1;
            }
            by_type.push((owner.type_ident.clone(), decls));
        }
        for (type_ident, decls) in by_type {
            if let Some(actor) = self.actors.iter_mut().find(|a| a.type_ident == type_ident) {
                actor.decls = decls;
            }
        }
    }

    /// True when a finding at `line` is suppressed by an
    /// `aodb-lint: allow(<rule>)` marker on that line or the line above.
    pub fn allowed(&self, line: u32, rule: Rule) -> bool {
        [line, line.saturating_sub(1)].iter().any(|l| {
            self.allows
                .get(l)
                .is_some_and(|names| names.iter().any(|n| n == rule.name()))
        })
    }

    /// The `name: Type` fields of a braced struct, as (name token, type
    /// token range). The name is the last identifier before the
    /// segment's first `:`; a segment whose first colon belongs to a
    /// `::` path (`pub(in a::b) f: T`) is skipped rather than misnamed.
    pub fn named_fields<'a>(
        &'a self,
        def: &'a TypeDef,
    ) -> impl Iterator<Item = (&'a Tok, Range<usize>)> + 'a {
        let plain = !def.is_enum && !def.tuple;
        def.fields.iter().filter(move |_| plain).filter_map(|seg| {
            let colon = seg.clone().find(|&k| self.toks[k].is_punct(':'))?;
            if self.toks.get(colon + 1).is_some_and(|t| t.is_punct(':')) {
                return None;
            }
            let name = self.toks[seg.start..colon]
                .iter()
                .rev()
                .find(|t| t.kind == TokKind::Ident)?;
            Some((name, colon + 1..seg.end))
        })
    }

    /// True when the token range mentions one of these identifiers
    /// (`Mutex`, `HashMap`, `ReplyTo`, ... in a type position).
    pub fn mentions(&self, range: Range<usize>, idents: &[&str]) -> bool {
        self.toks[range.start..range.end.min(self.toks.len())]
            .iter()
            .any(|t| t.kind == TokKind::Ident && idents.contains(&t.text.as_str()))
    }

    /// The innermost function whose body contains token `idx` — the
    /// `item` key of findings that come from a plain token scan.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body_range.0 <= idx && idx < f.body_range.1)
            .max_by_key(|f| f.body_range.0)
    }

    /// A finding of `rule` at `line` of this file, keyed to `item` for
    /// the baseline (lockcheck and replaycheck add a `class`).
    pub fn finding(&self, rule: Rule, line: u32, item: Option<String>, detail: String) -> Finding {
        Finding {
            rule,
            file: self.path.clone(),
            line,
            excerpt: self.excerpt(line),
            detail,
            item,
            class: None,
        }
    }

    /// The raw source line (trimmed) for an excerpt, if in range.
    pub fn excerpt(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// Last path segment of the first generic argument of the first `<..>`
/// group in `[start, end)` — `Handler<aodb_core::ReminderFired>` →
/// `ReminderFired` — and the index where the scan stopped (the group's
/// `>`, or the `,` that ends the first argument).
pub(crate) fn first_generic_arg(toks: &[Tok], start: usize, end: usize) -> (Option<String>, usize) {
    let Some(open) = (start..end).find(|&i| toks[i].is_punct('<')) else {
        return (None, end);
    };
    let mut angle = 1i32;
    let mut found = None;
    let mut i = open + 1;
    while i < end && angle > 0 {
        let t = &toks[i];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if angle == 1 && t.is_punct(',') {
            break;
        } else if angle == 1 && t.kind == TokKind::Ident {
            found = Some(t.text.clone());
        }
        i += 1;
    }
    (found, i)
}

struct Parser<'m> {
    model: &'m mut FileModel,
}

impl Parser<'_> {
    fn tok(&self, i: usize) -> &Tok {
        &self.model.toks[i]
    }

    /// Scans `[i, end)` for items, recursing into `impl`/`mod` bodies.
    fn scan_items(&mut self, mut i: usize, end: usize, owner: Option<&Owner>) {
        while i < end {
            let t = self.tok(i);
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            match t.text.as_str() {
                "impl" => i = self.parse_impl(i, end),
                "fn" => i = self.parse_fn(i, end, owner),
                "struct" | "enum" => i = self.parse_type_def(i, end),
                "mod" => {
                    // `mod name { ... }` → recurse; `mod name;` → skip.
                    let mut j = i + 1;
                    while j < end && !self.tok(j).is_punct('{') && !self.tok(j).is_punct(';') {
                        j += 1;
                    }
                    if j < end && self.tok(j).is_punct('{') {
                        let close = self.match_brace(j, end);
                        self.scan_items(j + 1, close, None);
                        i = close + 1;
                    } else {
                        i = j + 1;
                    }
                }
                "const" if owner.is_some() => i = self.parse_const(i, end, owner.unwrap()),
                _ => i += 1,
            }
        }
    }

    /// Index of the `}` matching the `{` at `open`.
    fn match_brace(&self, open: usize, end: usize) -> usize {
        skip_group(&self.model.toks, open, end, '{', '}').saturating_sub(1)
    }

    /// Skips a balanced `<...>` generics group starting at `i` (which
    /// must be `<`); `->` arrows inside are not closers.
    fn skip_angles(&self, mut i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        while i < end {
            let t = self.tok(i);
            if t.is_punct('-') && i + 1 < end && self.tok(i + 1).is_punct('>') {
                i += 2;
                continue;
            }
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        end
    }

    fn parse_impl(&mut self, kw: usize, end: usize) -> usize {
        let mut i = kw + 1;
        if i < end && self.tok(i).is_punct('<') {
            i = self.skip_angles(i, end);
        }
        // Header: tokens up to the body `{` at bracket depth 0.
        let head_start = i;
        let mut depth = 0i32;
        while i < end {
            let t = self.tok(i);
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct('{') && depth == 0 {
                break;
            }
            i += 1;
        }
        if i >= end {
            return end;
        }
        let owner = self.impl_owner(head_start, i);
        let open = i;
        let close = self.match_brace(open, end);
        if owner.trait_ident.as_deref() == Some("Actor") {
            self.model.actors.push(ActorInfo {
                type_ident: owner.type_ident.clone(),
                type_name: None,
                decls: Vec::new(),
            });
        }
        self.scan_items(open + 1, close, Some(&owner.clone()));
        close + 1
    }

    /// Splits an impl header into (trait, self type): `Handler<M> for X`.
    fn impl_owner(&self, start: usize, mut end: usize) -> Owner {
        // A trailing `where` clause is not part of either type.
        let at_depth0 = |kw: &str, end: usize| {
            let outside = self.depth0(start, end);
            outside.into_iter().find(|&i| self.tok(i).is_ident(kw))
        };
        if let Some(w) = at_depth0("where", end) {
            end = w;
        }
        match at_depth0("for", end) {
            Some(f) => Owner {
                type_ident: self.last_depth0_ident(f + 1, end).unwrap_or_default(),
                trait_ident: self.last_depth0_ident(start, f),
                trait_arg: first_generic_arg(&self.model.toks, start, f).0,
            },
            None => Owner {
                type_ident: self.last_depth0_ident(start, end).unwrap_or_default(),
                trait_ident: None,
                trait_arg: None,
            },
        }
    }

    /// The token indices of `[start, end)` outside every `<..>` group
    /// (`->` arrows are not closers).
    fn depth0(&self, start: usize, end: usize) -> Vec<usize> {
        let mut angle = 0i32;
        let mut out = Vec::new();
        let mut i = start;
        while i < end {
            let t = self.tok(i);
            if t.is_punct('-') && i + 1 < end && self.tok(i + 1).is_punct('>') {
                i += 2;
                continue;
            }
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if angle == 0 {
                out.push(i);
            }
            i += 1;
        }
        out
    }

    /// Last identifier at angle depth 0 in `[start, end)` (the final
    /// path segment of a possibly-generic type).
    fn last_depth0_ident(&self, start: usize, end: usize) -> Option<String> {
        let outside = self.depth0(start, end);
        let last = outside
            .into_iter()
            .rfind(|&i| self.tok(i).kind == TokKind::Ident)?;
        Some(self.tok(last).text.clone())
    }

    /// `const TYPE_NAME .. = "x";` and `declared_calls` bodies are the
    /// two impl-level constants the model cares about. `declared_calls`
    /// entries are also scanned here when written as `const CALLS`.
    fn parse_const(&mut self, kw: usize, end: usize, owner: &Owner) -> usize {
        let mut i = kw + 1;
        let is_type_name = i < end && self.tok(i).is_ident("TYPE_NAME");
        // Skip to `;` at brace depth 0 (array literals stay balanced).
        let mut depth = 0i32;
        let start = i;
        while i < end {
            let t = self.tok(i);
            if t.is_punct('{') || t.is_punct('[') || t.is_punct('(') {
                depth += 1;
            } else if t.is_punct('}') || t.is_punct(']') || t.is_punct(')') {
                depth -= 1;
            } else if t.is_punct(';') && depth == 0 {
                break;
            }
            i += 1;
        }
        if is_type_name && owner.trait_ident.as_deref() == Some("Actor") {
            let value = (start..i)
                .map(|j| self.tok(j))
                .find(|t| t.kind == TokKind::Str)
                .map(|t| t.text.clone());
            if let Some(actor) = self
                .model
                .actors
                .iter_mut()
                .rev()
                .find(|a| a.type_ident == owner.type_ident)
            {
                actor.type_name = value;
            }
        }
        i + 1
    }

    /// Records the `struct`/`enum` at `kw` with its body split on
    /// top-level commas. Bracket kinds nest, and angle depth is tracked
    /// outside them, so the commas in `Vec<(u64, u64)>` or in a variant's
    /// `{ a: u8, b: u8 }` don't split a field.
    fn parse_type_def(&mut self, kw: usize, end: usize) -> usize {
        let mut i = kw + 1;
        if i >= end || self.tok(i).kind != TokKind::Ident {
            return i;
        }
        let (name, line) = (self.tok(i).text.clone(), self.tok(i).line);
        // Skip generics / where clause to the body opener.
        let mut angle = 0i32;
        while i < end {
            let t = self.tok(i);
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if angle <= 0 && (t.is_punct('{') || t.is_punct('(') || t.is_punct(';')) {
                break;
            }
            i += 1;
        }
        let mut def = TypeDef {
            name,
            line,
            is_enum: self.tok(kw).is_ident("enum"),
            tuple: i < end && self.tok(i).is_punct('('),
            fields: Vec::new(),
        };
        if i >= end || self.tok(i).is_punct(';') {
            return i + 1; // unit struct: no body to record
        }
        let close = if def.tuple {
            skip_group(&self.model.toks, i, end, '(', ')').saturating_sub(1)
        } else {
            self.match_brace(i, end)
        };
        let mut seg_start = i + 1;
        let (mut depth, mut angle) = (0i32, 0i32);
        for j in i + 1..=close {
            let t = self.tok(j);
            if j < close {
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if depth == 0 && t.is_punct('<') {
                    angle += 1;
                } else if depth == 0 && t.is_punct('>') {
                    angle -= 1;
                }
                if !(depth == 0 && angle == 0 && t.is_punct(',')) {
                    continue;
                }
            }
            if seg_start < j {
                def.fields.push(seg_start..j);
            }
            seg_start = j + 1;
        }
        self.model.types.push(def);
        close + 1
    }

    fn parse_fn(&mut self, kw: usize, end: usize, owner: Option<&Owner>) -> usize {
        let mut i = kw + 1;
        let Some(name) =
            (i < end && self.tok(i).kind == TokKind::Ident).then(|| self.tok(i).text.clone())
        else {
            return i;
        };
        let fn_line = self.tok(kw).line;
        i += 1;
        if i < end && self.tok(i).is_punct('<') {
            i = self.skip_angles(i, end);
        }
        if i >= end || !self.tok(i).is_punct('(') {
            return i;
        }
        // Parameters: split on top-level commas within the parens.
        let params_open = i;
        let mut depth = 0i32;
        let mut params_close = end.saturating_sub(1);
        while i < end {
            let t = self.tok(i);
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    params_close = i;
                    break;
                }
            }
            i += 1;
        }
        let (has_mut_self, params) = self.parse_params(params_open + 1, params_close);
        let ctx_params = params
            .iter()
            .filter(|(_, ty)| self.model.mentions(ty.clone(), &["ActorContext"]))
            .map(|(name, _)| name.clone())
            .collect();
        // Return type / where clause: up to the body `{` or a `;`.
        i = params_close + 1;
        let mut depth = 0i32;
        while i < end {
            let t = self.tok(i);
            if t.is_punct('-') && i + 1 < end && self.tok(i + 1).is_punct('>') {
                i += 2;
                continue;
            }
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                depth -= 1;
            } else if depth <= 0 && (t.is_punct('{') || t.is_punct(';')) {
                break;
            }
            i += 1;
        }
        if i >= end || self.tok(i).is_punct(';') {
            return i + 1; // trait method signature without a body
        }
        let open = i;
        let close = self.match_brace(open, end);
        let stmts = StmtParser {
            toks: &self.model.toks,
        };
        let (body, _) = stmts.parse_block(open, close + 1);
        self.model.fns.push(FnItem {
            name,
            line: fn_line,
            owner: owner.cloned(),
            has_mut_self,
            params,
            ctx_params,
            body,
            body_range: (open + 1, close),
            end_line: self.tok(close).line,
        });
        // Items can nest inside function bodies (test-local actors).
        self.scan_items(open + 1, close, None);
        close + 1
    }

    /// Returns (`&mut self` present, the non-`self` parameters as name
    /// and type token range).
    fn parse_params(&self, start: usize, end: usize) -> (bool, Vec<(String, Range<usize>)>) {
        let mut has_mut_self = false;
        let mut params = Vec::new();
        let mut depth = 0i32;
        let mut seg_start = start;
        let mut handle_seg = |s: usize, e: usize| {
            let is_ident = |kw| (s..e).any(|i| self.tok(i).is_ident(kw));
            if is_ident("self") {
                has_mut_self |= is_ident("mut");
                return;
            }
            let Some(colon) = (s..e).find(|&i| self.tok(i).is_punct(':')) else {
                return;
            };
            let name = (s..colon)
                .map(|i| self.tok(i))
                .find(|t| t.kind == TokKind::Ident && t.text != "mut");
            if let Some(name) = name {
                params.push((name.text.clone(), colon + 1..e));
            }
        };
        let mut i = start;
        while i < end {
            let t = self.tok(i);
            if t.is_punct('-') && i + 1 < end && self.tok(i + 1).is_punct('>') {
                i += 2;
                continue;
            }
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                depth -= 1;
            } else if depth == 0 && t.is_punct(',') {
                handle_seg(seg_start, i);
                seg_start = i + 1;
            }
            i += 1;
        }
        handle_seg(seg_start, end);
        (has_mut_self, params)
    }
}

// ------------------------------------------------------- statement parse

/// How a statement sequence terminates.
enum Term {
    /// Started at `{`; consume through the matching `}`.
    Block,
    /// Match-arm expression: stop at a top-level `,` (consumed) or the
    /// match's `}` (not consumed).
    Arm,
}

struct StmtParser<'t> {
    toks: &'t [Tok],
}

impl StmtParser<'_> {
    /// Parses the block whose `{` is at `open`; returns the flow and the
    /// index just past the matching `}`. `end` caps scanning.
    fn parse_block(&self, open: usize, end: usize) -> (Flow, usize) {
        self.parse_seq(open + 1, end, Term::Block)
    }

    fn parse_seq(&self, mut i: usize, end: usize, term: Term) -> (Flow, usize) {
        let mut steps = Vec::new();
        let mut run: Vec<usize> = Vec::new();
        let mut depth = 0i32; // paren/bracket depth within the sequence
        let flush = |run: &mut Vec<usize>, steps: &mut Vec<Step>| {
            if !run.is_empty() {
                steps.push(Step::Run(std::mem::take(run)));
            }
        };
        while i < end {
            let t = &self.toks[i];
            if t.is_punct('}') && depth == 0 {
                flush(&mut run, &mut steps);
                return match term {
                    Term::Block => (Flow(steps), i + 1),
                    Term::Arm => (Flow(steps), i),
                };
            }
            if matches!(term, Term::Arm) && depth == 0 && t.is_punct(',') {
                flush(&mut run, &mut steps);
                return (Flow(steps), i + 1);
            }
            if t.is_punct('{') {
                // Closure body → flatten; plain block / struct literal →
                // a Scope step (exits inside are function exits, but the
                // brace bounds local lifetimes).
                let closure = run
                    .iter()
                    .rev()
                    .map(|&j| &self.toks[j])
                    .find(|t| !t.is_ident("move"))
                    .is_some_and(|t| t.is_punct('|'));
                let (inner, ni) = self.parse_block(i, end);
                if closure {
                    flatten_into(&inner, &mut run);
                } else {
                    flush(&mut run, &mut steps);
                    steps.push(Step::Scope(inner));
                }
                i = ni;
                continue;
            }
            if t.kind == TokKind::Ident && depth == 0 {
                match t.text.as_str() {
                    "if" => {
                        flush(&mut run, &mut steps);
                        let (mut branch_steps, ni, _) = self.parse_if(i, end);
                        steps.append(&mut branch_steps);
                        i = ni;
                        continue;
                    }
                    "match" => {
                        flush(&mut run, &mut steps);
                        let (head, open_b) = self.scan_until_block(i + 1, end);
                        steps.push(Step::Run(head));
                        let (arms, ni) = self.parse_match_arms(open_b, end);
                        steps.push(Step::Branch {
                            arms,
                            exhaustive: true,
                        });
                        i = ni;
                        continue;
                    }
                    "while" | "for" => {
                        flush(&mut run, &mut steps);
                        let (head, open_b) = self.scan_until_block(i + 1, end);
                        steps.push(Step::Run(head));
                        let (body, ni) = self.parse_block(open_b, end);
                        steps.push(Step::Loop(body));
                        i = ni;
                        continue;
                    }
                    "loop" => {
                        flush(&mut run, &mut steps);
                        let (_, open_b) = self.scan_until_block(i + 1, end);
                        let (body, ni) = self.parse_block(open_b, end);
                        steps.push(Step::Loop(body));
                        i = ni;
                        continue;
                    }
                    "return" => {
                        flush(&mut run, &mut steps);
                        let line = t.line;
                        let (expr, ni) = self.scan_return_expr(i + 1, end);
                        steps.push(Step::Return { toks: expr, line });
                        i = ni;
                        continue;
                    }
                    "else" => {
                        // Bare `else` in statement position = `let..else`
                        // diverging arm: runs (and must exit) or not.
                        flush(&mut run, &mut steps);
                        let (_, open_b) = self.scan_until_block(i + 1, end);
                        let (body, ni) = self.parse_block(open_b, end);
                        steps.push(Step::Branch {
                            arms: vec![body],
                            exhaustive: false,
                        });
                        i = ni;
                        continue;
                    }
                    _ => {}
                }
            }
            if t.is_punct('?') {
                run.push(i);
                flush(&mut run, &mut steps);
                steps.push(Step::Try { line: t.line });
                i += 1;
                continue;
            }
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            }
            run.push(i);
            i += 1;
        }
        flush(&mut run, &mut steps);
        (Flow(steps), end)
    }

    /// Parses an `if` chain starting at the `if` keyword. Returns the
    /// steps (condition run + branch), the next index, and whether the
    /// chain ends in an unconditional `else`.
    fn parse_if(&self, kw: usize, end: usize) -> (Vec<Step>, usize, bool) {
        let (cond, open_b) = self.scan_until_block(kw + 1, end);
        let (then_flow, mut i) = self.parse_block(open_b, end);
        let mut arms = vec![then_flow];
        let mut exhaustive = false;
        if i < end && self.toks[i].is_ident("else") {
            if i + 1 < end && self.toks[i + 1].is_ident("if") {
                let (else_steps, ni, ex) = self.parse_if(i + 1, end);
                arms.push(Flow(else_steps));
                exhaustive = ex;
                i = ni;
            } else {
                let (_, open_e) = self.scan_until_block(i + 1, end);
                let (else_flow, ni) = self.parse_block(open_e, end);
                arms.push(else_flow);
                exhaustive = true;
                i = ni;
            }
        }
        (
            vec![Step::Run(cond), Step::Branch { arms, exhaustive }],
            i,
            exhaustive,
        )
    }

    /// Collects token indices until a `{` at paren/bracket depth 0.
    /// Returns (collected, index of the `{`).
    fn scan_until_block(&self, mut i: usize, end: usize) -> (Vec<usize>, usize) {
        let mut out = Vec::new();
        let mut depth = 0i32;
        while i < end {
            let t = &self.toks[i];
            if t.is_punct('{') && depth == 0 {
                return (out, i);
            }
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            }
            out.push(i);
            i += 1;
        }
        (out, end.saturating_sub(1))
    }

    /// Collects a `return` expression through its `;` (consumed) or up
    /// to the enclosing block's `}` (not consumed).
    fn scan_return_expr(&self, mut i: usize, end: usize) -> (Vec<usize>, usize) {
        let mut out = Vec::new();
        let mut depth = 0i32;
        while i < end {
            let t = &self.toks[i];
            if depth == 0 && t.is_punct(';') {
                return (out, i + 1);
            }
            if depth == 0 && t.is_punct('}') {
                return (out, i);
            }
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            }
            out.push(i);
            i += 1;
        }
        (out, end)
    }

    /// Parses match arms from the `{` at `open` through the matching
    /// `}`; returns (arm flows including pattern tokens, next index).
    fn parse_match_arms(&self, open: usize, end: usize) -> (Vec<Flow>, usize) {
        let mut arms = Vec::new();
        let mut i = open + 1;
        loop {
            // Pattern: scan to `=>` at all-depth 0.
            let mut pattern = Vec::new();
            let mut depth = 0i32;
            let mut found_arrow = false;
            while i < end {
                let t = &self.toks[i];
                if depth == 0 && t.is_punct('}') {
                    return (arms, i + 1);
                }
                if depth == 0 && t.is_punct('=') && i + 1 < end && self.toks[i + 1].is_punct('>') {
                    i += 2;
                    found_arrow = true;
                    break;
                }
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                }
                pattern.push(i);
                i += 1;
            }
            if !found_arrow {
                return (arms, end);
            }
            let (mut arm, ni) = if i < end && self.toks[i].is_punct('{') {
                let (f, n) = self.parse_block(i, end);
                // A `{}`-bodied arm may omit the comma.
                let n = if n < end && self.toks[n].is_punct(',') {
                    n + 1
                } else {
                    n
                };
                (f, n)
            } else {
                self.parse_seq(i, end, Term::Arm)
            };
            arm.0.insert(0, Step::Run(pattern));
            arms.push(arm);
            i = ni;
        }
    }
}

/// Appends every token index in `flow` (in order) to `out` — used to
/// treat closure bodies as straight-line code.
fn flatten_into(flow: &Flow, out: &mut Vec<usize>) {
    for step in &flow.0 {
        match step {
            Step::Run(idxs) => out.extend_from_slice(idxs),
            Step::Scope(body) => flatten_into(body, out),
            Step::Return { toks, .. } => out.extend_from_slice(toks),
            Step::Try { .. } => {}
            Step::Branch { arms, .. } => {
                for arm in arms {
                    flatten_into(arm, out);
                }
            }
            Step::Loop(body) => flatten_into(body, out),
        }
    }
}

// ------------------------------------------------------------- analyses
//
// The ack-before-commit analysis lives in [`crate::durability`].

/// Reply-obligation findings for one file. `reply_structs` maps message
/// struct names to their `ReplyTo` field names, corpus-wide.
pub fn reply_findings(
    model: &FileModel,
    reply_structs: &HashMap<String, Vec<String>>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &model.fns {
        if f.name != "handle" {
            continue;
        }
        let Some(owner) = &f.owner else { continue };
        if owner.trait_ident.as_deref() != Some("Handler") {
            continue;
        }
        let Some(msg_type) = &owner.trait_arg else {
            continue;
        };
        let Some(fields) = reply_structs.get(msg_type) else {
            continue;
        };
        // Bitmask of still-unconsumed sinks.
        let all: u32 = (1u32 << fields.len().min(31)) - 1;
        let mut transfer = |mask: &mut u32, idxs: &[usize]| {
            for &j in idxs {
                let t = &model.toks[j];
                if t.kind != TokKind::Ident {
                    continue;
                }
                if let Some(k) = fields.iter().position(|n| *n == t.text) {
                    *mask &= !(1u32 << k);
                }
            }
        };
        let exits = eval_flow(&f.body, all, f.end_line, &mut transfer);
        let mut reported: Vec<u32> = Vec::new();
        for exit in exits {
            if exit.kind == ExitKind::Try || exit.state == 0 {
                continue; // `?` propagates an error; 0 = all sinks touched
            }
            if reported.contains(&exit.line) {
                continue;
            }
            reported.push(exit.line);
            if model.allowed(exit.line, Rule::ReplyLeak) {
                continue;
            }
            let leaked: Vec<&str> = fields
                .iter()
                .enumerate()
                .filter(|(k, _)| exit.state & (1 << k) != 0)
                .map(|(_, n)| n.as_str())
                .collect();
            findings.push(model.finding(
                Rule::ReplyLeak,
                exit.line,
                Some(f.name.clone()),
                format!(
                    "handler of `{msg_type}` for `{}` can exit here without delivering or \
                     forwarding reply sink(s) {} — the caller's promise is lost",
                    owner.type_ident,
                    leaked
                        .iter()
                        .map(|n| format!("`{n}`"))
                        .collect::<Vec<_>>()
                        .join(", "),
                ),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::parse(Path::new("test.rs"), src)
    }

    #[test]
    fn fn_and_owner_extraction() {
        let m = model(
            "impl Handler<Ping> for Gateway {\n\
             fn handle(&mut self, msg: Ping, ctx: &mut ActorContext<'_>) -> u32 { 1 }\n\
             }\n\
             fn free(ctx: &ActorContext<'_>, n: u32) {}\n",
        );
        assert_eq!(m.fns.len(), 2);
        let h = &m.fns[0];
        assert_eq!(h.name, "handle");
        assert!(h.has_mut_self);
        assert_eq!(h.ctx_params, ["ctx"]);
        let names: Vec<&str> = h.params.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["msg", "ctx"]);
        let o = h.owner.as_ref().unwrap();
        assert_eq!(o.type_ident, "Gateway");
        assert_eq!(o.trait_ident.as_deref(), Some("Handler"));
        assert_eq!(o.trait_arg.as_deref(), Some("Ping"));
        assert_eq!(m.fns[1].ctx_params, ["ctx"]);
    }

    #[test]
    fn actor_info_and_decls_via_sendsites_model() {
        let m = model(
            "impl Actor for Cow {\n\
             const TYPE_NAME: &'static str = \"cattle.cow\";\n\
             fn declared_calls() -> &'static [CallDecl] {\n\
             const CALLS: &[CallDecl] = &[CallDecl::send(\"aodb.index-shard\")];\n\
             CALLS\n\
             }\n\
             }\n",
        );
        assert_eq!(m.actors.len(), 1);
        assert_eq!(m.actors[0].type_ident, "Cow");
        assert_eq!(m.actors[0].type_name.as_deref(), Some("cattle.cow"));
    }

    #[test]
    fn reply_struct_fields() {
        let src = "pub struct Slaughter {\n\
             pub cow: String,\n\
             pub reply: ReplyTo<Option<Vec<String>>>,\n\
             }\n\
             struct Plain { x: u32 }\n";
        let corpus = crate::Corpus::from_sources(vec![("test.rs".into(), src.into())]);
        let replies = corpus.reply_structs();
        assert_eq!(replies.get("Slaughter").unwrap(), &["reply"]);
        assert!(!replies.contains_key("Plain"));
    }

    #[test]
    fn nested_impl_inside_test_fn_is_found() {
        let m = model(
            "fn test_body() {\n\
             struct Local;\n\
             impl Actor for Local {\n\
             const TYPE_NAME: &'static str = \"t.local\";\n\
             }\n\
             }\n",
        );
        assert!(m.actors.iter().any(|a| a.type_ident == "Local"));
    }

    #[test]
    fn reply_leak_on_one_path() {
        let mut structs = HashMap::new();
        structs.insert("Ask".to_string(), vec!["reply".to_string()]);
        let m = model(
            "impl Handler<Ask> for A {\n\
             fn handle(&mut self, msg: Ask, _ctx: &mut ActorContext<'_>) {\n\
             if self.ready {\n\
             msg.reply.deliver(self.answer());\n\
             }\n\
             }\n\
             }\n",
        );
        let f = reply_findings(&m, &structs);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::ReplyLeak);
    }

    #[test]
    fn reply_stored_or_delivered_on_all_paths_is_clean() {
        let mut structs = HashMap::new();
        structs.insert("Ask".to_string(), vec!["done".to_string()]);
        let m = model(
            "impl Handler<Ask> for A {\n\
             fn handle(&mut self, msg: Ask, _ctx: &mut ActorContext<'_>) {\n\
             if self.busy {\n\
             msg.done.deliver(Outcome::Busy);\n\
             return;\n\
             }\n\
             self.pending.push(Pending { done: Some(msg.done) });\n\
             }\n\
             }\n",
        );
        assert!(reply_findings(&m, &structs).is_empty());
    }
}
