//! aodb-lockcheck — lock-class extraction and guard-liveness dataflow.
//!
//! The application-level passes (drift, reply, ack durability) trust the
//! runtime substrate to be correct; this pass checks the substrate
//! itself, in the spirit of kernel lockdep:
//!
//! * **Lock classes** — every struct field or `static` whose type
//!   mentions `Mutex`/`RwLock`/`Condvar` (parking_lot or `std::sync`
//!   alike) becomes a class named `OwningType.field` (the struct list
//!   and the [`FieldClasses`] registry are the shared core's); a
//!   function parameter of lock type becomes `Owner::fn(param)`.
//! * **Guard liveness** — each function's control-flow tree is walked
//!   by [`crate::dataflow::eval_flow`] with a state of live guards:
//!   `let`-bound guards live to scope exit or `drop(g)`, temporaries
//!   (`self.crashed.lock().insert(..)`) die at the end of their
//!   statement, branch/loop/block scopes prune guards bound inside.
//! * **Held-while-acquiring edges** — acquiring class B with class A
//!   live adds edge A→B; one level of intra-corpus call propagation
//!   (`self.helper(..)` and free/path calls, resolved by unique name)
//!   adds the callee's direct acquisitions. The edge set feeds
//!   [`crate::lockgraph::LockGraph`] for cycle detection and DOT dumps.
//! * **`lock-across-blocking`** — a guard live across store/file I/O,
//!   `park`/`sleep`, a condvar or promise wait, a channel `send`/`recv`,
//!   a group-commit WAL seam (`submit`/`submit_with` hand off through
//!   the committer's queue mutex; `append`/`reset` block until the
//!   group fsync), or a dispatch into user actor code (`env.run(..)`,
//!   lifecycle `activate`/`deactivate`, reply `deliver`) pins the lock
//!   while the thread does unbounded work — every other thread touching
//!   that class stalls behind it. What blocks is a table in
//!   [`crate::taxonomy`]. Two idioms are understood rather than
//!   baselined: a condvar wait that takes the guard *by value*
//!   (`q = cv.wait(q)`) hands that guard off — the wait releases it —
//!   so only the *other* live guards are held across it; and `.append`
//!   blocks only on a receiver named `wal` (`PointCompressor::append`
//!   is in-memory bit packing).
//! * **`guard-across-wait`** ([`guard_wait_findings`]) — the same walk
//!   run for the turn lint over the whole tree: no class registry, every
//!   `let`-bound guard admitted, only blocking *requests* reported.
//!
//! Soundness limits (documented in DESIGN.md §11): receivers are
//! resolved by owner field, local binding, accessor method, or
//! corpus-unique field name — an unresolvable receiver is skipped
//! (may miss, never crashes); call propagation is one level deep and
//! only through `self.helper(..)`/free calls, so a lock taken behind a
//! field-method call (`act.mailbox.x(..)`) is not attributed to the
//! caller; `match` scrutinee temporaries are modeled as dying at the
//! head (in Rust they live through the arms).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::dataflow::{
    eval_flow, resolve_callee, FieldClasses, FileModel, FnIndex, FnItem, Transfer,
};
use crate::lexer::TokKind;
use crate::lint::{turn_request, Finding, Rule};
use crate::lockgraph::{LockEdge, LockGraph};
use crate::sendsites::Corpus;
use crate::taxonomy::{
    is_keywordish, ACQUIRE_METHODS, FREE_BLOCKERS, FS_BLOCKERS, FS_OWNERS, GUARD_HANDOFF_WAITS,
    LOCK_TYPES, METHOD_BLOCKERS, RECEIVER_QUALIFIED_BLOCKERS, ZERO_ARG_BLOCKERS,
};

// ------------------------------------------------------------- classes

/// Interns a class (`static.NAME`) for every `static` of one file whose
/// type mentions a lock type.
fn collect_static_classes(model: &FileModel, file_idx: usize, classes: &mut FieldClasses) {
    let toks = &model.toks;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("static") {
            // `static NAME: <type with lock> = ..;`
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_ident("mut") {
                j += 1;
            }
            if j + 1 < toks.len() && toks[j].kind == TokKind::Ident && toks[j + 1].is_punct(':') {
                let mut k = j + 2;
                while k < toks.len() && !toks[k].is_punct('=') && !toks[k].is_punct(';') {
                    k += 1;
                }
                if model.mentions(j + 2..k, LOCK_TYPES) {
                    classes.intern("static", &toks[j].text, file_idx, toks[j].line);
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
}

/// Lock-typed parameters of one function (`consume(&self, bucket:
/// &Mutex<TokenBucket>, ..)`), as (param name, class id) pairs.
fn param_classes(model: &FileModel, f: &FnItem, classes: &mut FieldClasses) -> Vec<(String, u16)> {
    let owner = f
        .owner
        .as_ref()
        .map(|o| o.type_ident.as_str())
        .unwrap_or("fn");
    let mut out = Vec::new();
    for (name, ty) in &f.params {
        if model.mentions(ty.clone(), LOCK_TYPES) {
            // Param classes are positional, not field-addressed;
            // register the display name only.
            let id = classes.names.len() as u16;
            classes.names.push(format!("{owner}::{}({name})", f.name));
            out.push((name.clone(), id));
        }
    }
    out
}

// ----------------------------------------------------------- fn walker

/// One live guard.
#[derive(Clone, PartialEq)]
struct HeldGuard {
    /// `None` = the receiver resolved to no known class (only tracked
    /// when the walk admits unresolved receivers, for `guard-across-wait`).
    class: Option<u16>,
    /// Binding name for `let`-bound guards; `None` = statement temporary.
    name: Option<String>,
    line: u32,
    /// Scope depth at acquisition (scope exit prunes deeper guards).
    depth: u16,
}

/// Dataflow state: live guards plus local `var → class` bindings
/// (`let shard = &self.shards[..];` later acquired via `shard.read()`).
#[derive(Clone, PartialEq, Default)]
struct LState {
    held: Vec<HeldGuard>,
    bindings: Vec<(String, u16)>,
}

/// A call site recorded for one-level propagation.
struct CallSite {
    callee: String,
    held: Vec<(u16, u32)>, // (class, guard acquisition line)
    line: u32,
}

/// Per-function facts produced by the walk.
#[derive(Default)]
struct FnFacts {
    /// Classes this function acquires anywhere (for propagation).
    acquires: BTreeSet<u16>,
    /// First direct blocking point, if any (for propagation).
    blocks: Option<(String, u32)>,
    /// Held-while-acquiring edges with provenance.
    edges: Vec<(u16, u16, u32)>,
    /// (guard class, guard line, blocking label, blocking line).
    blocked_holds: Vec<(u16, u32, String, u32)>,
    /// Blocking *requests* under a `let`-bound guard, keyed by the
    /// request's token: (guard name, guard line, request pattern).
    guard_waits: BTreeMap<usize, (String, u32, &'static str)>,
    /// Calls made while holding at least one guard.
    calls: Vec<CallSite>,
}

struct FnCx<'a> {
    model: &'a FileModel,
    owner: Option<&'a str>,
    params: &'a [(String, u16)],
    accessors: &'a HashMap<String, u16>,
    classes: &'a FieldClasses,
    /// Track guards whose receiver resolves to no class. Lockcheck
    /// skips them (its findings name a class); the turn rule admits
    /// them (any guard across a blocking request is a finding).
    admit_unresolved: bool,
    facts: FnFacts,
}

impl<'a> FnCx<'a> {
    fn new(
        model: &'a FileModel,
        f: &'a FnItem,
        params: &'a [(String, u16)],
        accessors: &'a HashMap<String, u16>,
        classes: &'a FieldClasses,
        admit_unresolved: bool,
    ) -> FnCx<'a> {
        FnCx {
            model,
            owner: f.owner.as_ref().map(|o| o.type_ident.as_str()),
            params,
            accessors,
            classes,
            admit_unresolved,
            facts: FnFacts::default(),
        }
    }
}

impl FnCx<'_> {
    fn resolve_receiver(&self, s: &LState, j: usize) -> Option<u16> {
        let toks = &self.model.toks;
        // `j` is the acquisition method ident; receiver ends at j-2
        // (past the `.`).
        if j < 2 {
            return None;
        }
        let r = j - 2;
        if toks[r].is_punct(')') {
            // `self.shard(id).read()` — find the call's method ident and
            // resolve it as an accessor.
            let mut depth = 0i32;
            let mut k = r;
            loop {
                if toks[k].is_punct(')') {
                    depth += 1;
                } else if toks[k].is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    return None;
                }
                k -= 1;
            }
            if k >= 1 && toks[k - 1].kind == TokKind::Ident {
                return self.accessors.get(&toks[k - 1].text).copied();
            }
            return None;
        }
        if toks[r].kind != TokKind::Ident {
            return None;
        }
        let field = toks[r].text.as_str();
        let qualified = r >= 2 && toks[r - 1].is_punct('.');
        let base_self = qualified && toks[r - 2].is_ident("self");
        // Owner-qualified field wins (`self.inner` in two structs named
        // `inner` resolves by the enclosing impl).
        if base_self {
            if let Some(owner) = self.owner {
                if let Some(id) = self.classes.by_owner_field(owner, field) {
                    return Some(id);
                }
            }
        }
        if !qualified {
            // Plain identifier: a local binding or a lock-typed param.
            if let Some(&(_, id)) = s.bindings.iter().rev().find(|(n, _)| n == field) {
                return Some(id);
            }
            if let Some(&(_, id)) = self.params.iter().find(|(n, _)| n == field) {
                return Some(id);
            }
            if let Some(id) = self.accessors.get(field) {
                return Some(*id);
            }
        }
        // Fall back to a corpus-unique field name (`act.actor.lock()`).
        self.classes.unique_field(field)
    }

    /// A lock-field or accessor mention inside a statement, for
    /// `let shard = self.shard(id);`-style binding inference.
    fn resolve_mention(&self, s: &LState, j: usize) -> Option<u16> {
        let toks = &self.model.toks;
        if toks[j].kind != TokKind::Ident {
            return None;
        }
        let name = toks[j].text.as_str();
        let preceded_by_self = j >= 2 && toks[j - 1].is_punct('.') && toks[j - 2].is_ident("self");
        if preceded_by_self {
            if let Some(owner) = self.owner {
                if let Some(id) = self.classes.by_owner_field(owner, name) {
                    return Some(id);
                }
            }
            if let Some(id) = self.accessors.get(name) {
                return Some(*id);
            }
            return self.classes.unique_field(name);
        }
        if let Some(&(_, id)) = s.bindings.iter().rev().find(|(n, _)| n == name) {
            return Some(id);
        }
        None
    }
}

/// The guard-liveness walk is [`eval_flow`] with two hooks: token runs
/// acquire, release and block; a scope exit drops the guards bound
/// inside it and ends any statement in flight.
impl Transfer<LState> for FnCx<'_> {
    fn run(&mut self, s: &mut LState, idxs: &[usize], depth: u16) {
        run_tokens(self, s, idxs, depth);
    }

    fn exit_scope(&mut self, s: &mut LState, depth: u16) {
        s.held.retain(|g| g.depth <= depth && g.name.is_some());
    }
}

/// Applies one straight-line token run to a state, recording
/// acquisitions, releases, blocking points, and call sites.
fn run_tokens(cx: &mut FnCx<'_>, s: &mut LState, idxs: &[usize], depth: u16) {
    let toks = &cx.model.toks;
    let mut pending_let: Option<String> = None;
    let mut pending_bind: Option<u16> = None;
    let mut pdepth = 0i32;

    // `for x in <expr-with-lock>` heads bind the loop variable.
    if idxs.len() >= 2 && toks[idxs[0]].kind == TokKind::Ident && toks[idxs[1]].is_ident("in") {
        if let Some(id) = idxs[2..].iter().find_map(|&j| cx.resolve_mention(s, j)) {
            s.bindings.push((toks[idxs[0]].text.clone(), id));
        }
    }

    let mut k = 0usize;
    while k < idxs.len() {
        let j = idxs[k];
        let t = &toks[j];

        if t.is_punct('(') || t.is_punct('[') {
            pdepth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            pdepth -= 1;
        } else if t.is_punct(';') && pdepth <= 0 {
            // Statement end: temporaries die, pending binding commits.
            s.held.retain(|g| g.name.is_some());
            if let (Some(n), Some(c)) = (pending_let.take(), pending_bind.take()) {
                s.bindings.push((n, c));
            }
            pending_let = None;
            pending_bind = None;
            k += 1;
            continue;
        }

        if t.kind != TokKind::Ident {
            k += 1;
            continue;
        }

        // `let [mut] name =` opens a binding statement.
        if t.text == "let" {
            let mut n = k + 1;
            if n < idxs.len() && toks[idxs[n]].is_ident("mut") {
                n += 1;
            }
            if n + 1 < idxs.len()
                && toks[idxs[n]].kind == TokKind::Ident
                && toks[idxs[n + 1]].is_punct('=')
            {
                pending_let = Some(toks[idxs[n]].text.clone());
                pending_bind = None;
                k = n + 2;
                continue;
            }
            k += 1;
            continue;
        }

        // `drop(g)` releases a named guard (or forgets a binding).
        if t.text == "drop"
            && j + 3 < toks.len()
            && toks[j + 1].is_punct('(')
            && toks[j + 2].kind == TokKind::Ident
            && toks[j + 3].is_punct(')')
        {
            let name = toks[j + 2].text.as_str();
            s.held.retain(|g| g.name.as_deref() != Some(name));
            s.bindings.retain(|(n, _)| n != name);
            k += 1;
            continue;
        }

        let prev_dot = j >= 1 && toks[j - 1].is_punct('.');
        let next_paren = j + 1 < toks.len() && toks[j + 1].is_punct('(');

        // Acquisition: `.lock()` / `.read()` / `.write()` (zero-arg —
        // `file.write(buf)` / `stream.read(&mut b)` are I/O, not locks).
        if prev_dot
            && next_paren
            && j + 2 < toks.len()
            && toks[j + 2].is_punct(')')
            && ACQUIRE_METHODS.contains(&t.text.as_str())
        {
            let class = cx.resolve_receiver(s, j);
            if let Some(class) = class {
                cx.facts.acquires.insert(class);
                let mut seen = BTreeSet::new();
                for held in s.held.iter().filter_map(|g| g.class) {
                    if seen.insert(held) {
                        cx.facts.edges.push((held, class, t.line));
                    }
                }
            }
            if class.is_some() || cx.admit_unresolved {
                s.held.push(HeldGuard {
                    class,
                    name: pending_let.take(),
                    line: t.line,
                    depth,
                });
                k += 1;
                continue;
            }
        }

        // Binding inference: while a `let` is pending, the first
        // resolvable lock mention becomes the binding's class (unless an
        // acquisition consumed the `let` above).
        if pending_let.is_some() && pending_bind.is_none() {
            if let Some(id) = cx.resolve_mention(s, j) {
                pending_bind = Some(id);
            }
        }

        // Blocking points.
        let mut blocked: Option<(String, &'static str)> = None;
        let zero_arg = j + 2 < toks.len() && toks[j + 2].is_punct(')');
        if next_paren {
            if prev_dot {
                let name = t.text.as_str();
                let receiver_ok = RECEIVER_QUALIFIED_BLOCKERS
                    .iter()
                    .all(|(m, recv)| *m != name || (j >= 2 && toks[j - 2].is_ident(recv)));
                let arity_ok = zero_arg || !ZERO_ARG_BLOCKERS.contains(&name);
                if let Some((_, label)) = METHOD_BLOCKERS
                    .iter()
                    .find(|(m, _)| *m == name && receiver_ok && arity_ok)
                {
                    blocked = Some((format!(".{name}(..)"), label));
                }
            } else {
                let path_sep = j >= 1 && toks[j - 1].is_punct(':');
                if let Some((_, label)) = FREE_BLOCKERS.iter().find(|(m, _)| *m == t.text.as_str())
                {
                    blocked = Some((format!("{}(..)", t.text), label));
                }
                if blocked.is_none()
                    && path_sep
                    && j >= 3
                    && toks[j - 2].is_punct(':')
                    && FS_BLOCKERS.contains(&t.text.as_str())
                    && FS_OWNERS.contains(&toks[j - 3].text.as_str())
                {
                    blocked = Some((format!("{}::{}(..)", toks[j - 3].text, t.text), "file I/O"));
                }
            }
        }
        if let Some((what, label)) = blocked {
            if cx.facts.blocks.is_none() {
                cx.facts.blocks = Some((format!("{what} — {label}"), t.line));
            }
            // `q = cv.wait(q)`: the wait consumes the guard it is given
            // and releases that mutex while parked — a hand-off, not a
            // hold-across. Every *other* live guard is still held.
            let handed_off = (prev_dot
                && GUARD_HANDOFF_WAITS.contains(&t.text.as_str())
                && j + 3 < toks.len()
                && toks[j + 2].kind == TokKind::Ident
                && (toks[j + 3].is_punct(',') || toks[j + 3].is_punct(')')))
            .then(|| toks[j + 2].text.as_str());
            let held = s
                .held
                .iter()
                .filter(|g| handed_off.is_none() || g.name.as_deref() != handed_off);
            let mut seen = BTreeSet::new();
            for g in held.clone() {
                if let Some(class) = g.class.filter(|c| seen.insert(*c)) {
                    let what = format!("{what} ({label})");
                    cx.facts.blocked_holds.push((class, g.line, what, t.line));
                }
            }
            // The turn rule: a blocking *request* under a `let`-bound
            // guard, reported once against the first such guard.
            if let Some(pattern) = turn_request(toks, j) {
                if let Some((name, g)) = held.clone().find_map(|g| Some((g.name.clone()?, g))) {
                    cx.facts.guard_waits.insert(j, (name, g.line, pattern));
                }
            }
            k += 1;
            continue;
        }

        // Call sites for one-level propagation: `self.helper(..)` and
        // free/path calls, recorded only while a guard is live.
        if next_paren && !s.held.is_empty() {
            let self_method = prev_dot && j >= 2 && toks[j - 2].is_ident("self");
            let free_call = !prev_dot;
            if (self_method || free_call) && !is_keywordish(&t.text) {
                let mut held = Vec::new();
                let mut seen = BTreeSet::new();
                for g in &s.held {
                    if let Some(class) = g.class.filter(|c| seen.insert(*c)) {
                        held.push((class, g.line));
                    }
                }
                cx.facts.calls.push(CallSite {
                    callee: t.text.clone(),
                    held,
                    line: t.line,
                });
            }
        }
        k += 1;
    }

    // A run ending mid-statement (an `if`/`match` head) evaluates its
    // temporaries before the branch in the common case; drop them.
    s.held.retain(|g| g.name.is_some());
    if let (Some(n), Some(c)) = (pending_let, pending_bind) {
        s.bindings.push((n, c));
    }
}

// ------------------------------------------------------------ analysis

/// The result of a lockcheck pass: findings plus the lock-order graph.
pub struct LockAnalysis {
    /// `lock-across-blocking` and `lock-order-cycle` findings.
    pub findings: Vec<Finding>,
    /// The held-while-acquiring graph (DOT-dumpable, cycle-checked).
    pub graph: LockGraph,
}

/// Runs lockcheck over a parsed corpus.
pub fn lockcheck_corpus(corpus: &Corpus) -> LockAnalysis {
    let mut classes = FieldClasses::of_fields(&corpus.files, LOCK_TYPES);
    for (fi, file) in corpus.files.iter().enumerate() {
        collect_static_classes(file, fi, &mut classes);
    }

    // Accessor methods: a fn whose body mentions exactly one of its
    // owner's lock fields can stand in for that field as a receiver
    // (`self.shard(id).read()` → `Directory.shards`).
    let mut accessors_by_file: Vec<HashMap<String, u16>> = Vec::new();
    for file in &corpus.files {
        let mut here = HashMap::new();
        for f in &file.fns {
            let Some(owner) = &f.owner else { continue };
            let mut found: BTreeSet<u16> = BTreeSet::new();
            for j in f.body_range.0..f.body_range.1 {
                let t = &file.toks[j];
                if t.kind == TokKind::Ident && j >= 2 && file.toks[j - 1].is_punct('.') {
                    if let Some(id) = classes.by_owner_field(&owner.type_ident, &t.text) {
                        found.insert(id);
                    }
                }
            }
            if found.len() == 1 {
                here.insert(f.name.clone(), *found.iter().next().unwrap());
            }
        }
        accessors_by_file.push(here);
    }

    // Pass 1: walk every function.
    let mut all_facts: Vec<Vec<FnFacts>> = Vec::new();
    let mut fn_index = FnIndex::new();
    for (fi, file) in corpus.files.iter().enumerate() {
        let mut per_fn = Vec::new();
        for (gi, f) in file.fns.iter().enumerate() {
            let params = param_classes(file, f, &mut classes);
            let mut cx = FnCx::new(file, f, &params, &accessors_by_file[fi], &classes, false);
            eval_flow(&f.body, LState::default(), f.end_line, &mut cx);
            per_fn.push(cx.facts);
            fn_index.entry(f.name.clone()).or_default().push((fi, gi));
        }
        all_facts.push(per_fn);
    }

    // Pass 2: one-level call propagation + finding assembly.
    let mut findings = Vec::new();
    let mut edges: BTreeMap<(u16, u16), LockEdge> = BTreeMap::new();
    for (fi, file) in corpus.files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            let facts = &all_facts[fi][gi];
            let mut reported: BTreeSet<(u16, u32)> = BTreeSet::new();
            for (class, gline, what, bline) in &facts.blocked_holds {
                if !reported.insert((*class, *bline)) {
                    continue;
                }
                if file.allowed(*bline, Rule::LockAcrossBlocking)
                    || file.allowed(*gline, Rule::LockAcrossBlocking)
                {
                    continue;
                }
                let class_name = &classes.names[*class as usize];
                let detail = format!(
                    "`{}` holds `{class_name}` (acquired line {gline}) across {what} — \
                     every thread contending on that lock stalls behind this operation",
                    f.name
                );
                findings.push(
                    file.finding(
                        Rule::LockAcrossBlocking,
                        *bline,
                        Some(f.name.clone()),
                        detail,
                    )
                    .with_class(Some(class_name.clone())),
                );
            }
            for (from, to, line) in &facts.edges {
                edges.entry((*from, *to)).or_insert_with(|| LockEdge {
                    from: classes.names[*from as usize].clone(),
                    to: classes.names[*to as usize].clone(),
                    file: file.path.clone(),
                    line: *line,
                    via: f.name.clone(),
                });
            }
            // Propagated effects of calls made under a guard.
            for call in &facts.calls {
                let chosen = resolve_callee(&fn_index, fi, &call.callee);
                let Some((cf, cg)) = chosen else { continue };
                if (cf, cg) == (fi, gi) {
                    continue; // self-recursion adds nothing
                }
                let callee = &all_facts[cf][cg];
                for &(held, gline) in &call.held {
                    for &acq in &callee.acquires {
                        edges.entry((held, acq)).or_insert_with(|| LockEdge {
                            from: classes.names[held as usize].clone(),
                            to: classes.names[acq as usize].clone(),
                            file: file.path.clone(),
                            line: call.line,
                            via: format!("{} -> {}", f.name, call.callee),
                        });
                    }
                    if let Some((what, bline)) = &callee.blocks {
                        if !reported.insert((held, call.line)) {
                            continue;
                        }
                        if file.allowed(call.line, Rule::LockAcrossBlocking)
                            || file.allowed(gline, Rule::LockAcrossBlocking)
                        {
                            continue;
                        }
                        let class_name = &classes.names[held as usize];
                        let detail = format!(
                            "`{}` holds `{class_name}` (acquired line {gline}) across a \
                             call to `{}`, which blocks ({what} at line {bline})",
                            f.name, call.callee
                        );
                        let item = Some(f.name.clone());
                        findings.push(
                            file.finding(Rule::LockAcrossBlocking, call.line, item, detail)
                                .with_class(Some(class_name.clone())),
                        );
                    }
                }
            }
        }
    }

    let graph = LockGraph::new(classes.names.clone(), edges.into_values().collect());
    findings.extend(graph.cycle_findings());
    crate::lint::sort_findings(&mut findings);
    LockAnalysis { findings, graph }
}

/// The `guard-across-wait` turn rule: the same guard-liveness walk over
/// every function of the corpus, with no class registry — any `let`-bound
/// `.lock()`/`.read()`/`.write()` guard counts, whatever it guards — and
/// only the blocking *requests* (`.call(`, `.wait()`, `.wait_for(`)
/// reported. A finding is keyed to the innermost enclosing function.
pub fn guard_wait_findings(corpus: &Corpus) -> Vec<Finding> {
    let (classes, accessors) = (FieldClasses::default(), HashMap::new());
    let mut findings = Vec::new();
    for file in &corpus.files {
        let mut waits = BTreeMap::new();
        for f in &file.fns {
            let mut cx = FnCx::new(file, f, &[], &accessors, &classes, true);
            eval_flow(&f.body, LState::default(), f.end_line, &mut cx);
            waits.append(&mut cx.facts.guard_waits);
        }
        for (tok, (guard, gline, pattern)) in waits {
            let line = file.toks[tok].line;
            if file.allowed(line, Rule::GuardAcrossWait) {
                continue;
            }
            findings.push(Finding {
                rule: Rule::GuardAcrossWait,
                file: file.path.clone(),
                line,
                excerpt: file.excerpt(line),
                detail: format!(
                    "`{pattern}` while guard `{guard}` (bound on line {gline}) is live; \
                     drop the guard before blocking"
                ),
                item: file.enclosing_fn(tok).map(|f| f.name.clone()),
                class: None,
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> LockAnalysis {
        lockcheck_corpus(&Corpus::from_sources(vec![(
            "test.rs".into(),
            src.to_string(),
        )]))
    }

    #[test]
    fn classes_from_fields_and_params() {
        let a = analyze(
            "struct A { m: Mutex<u32>, plain: u32 }\n\
             struct B { r: parking_lot::RwLock<Vec<u8>> }\n\
             impl A { fn take(&self, extra: &Mutex<u8>) { extra.lock(); } }\n",
        );
        assert!(
            a.graph.nodes().iter().any(|n| n == "A.m"),
            "{:?}",
            a.graph.nodes()
        );
        assert!(a.graph.nodes().iter().any(|n| n == "B.r"));
        assert!(a.graph.nodes().iter().any(|n| n == "A::take(extra)"));
        assert!(!a.graph.nodes().iter().any(|n| n.contains("plain")));
    }

    #[test]
    fn held_while_acquiring_builds_edge() {
        let a = analyze(
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
             fn both(&self) {\n\
             let g = self.a.lock();\n\
             let h = self.b.lock();\n\
             drop(h);\n\
             drop(g);\n\
             }\n\
             }\n",
        );
        assert!(a
            .graph
            .edges()
            .iter()
            .any(|e| e.from == "S.a" && e.to == "S.b"));
        assert!(a.findings.is_empty(), "{:#?}", a.findings);
    }

    #[test]
    fn opposite_orders_are_a_cycle() {
        let a = analyze(
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
             fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
             fn ba(&self) { let g = self.b.lock(); let h = self.a.lock(); }\n\
             }\n",
        );
        assert!(
            a.findings.iter().any(|f| f.rule == Rule::LockOrderCycle),
            "{:#?}",
            a.findings
        );
    }

    #[test]
    fn temporary_dies_at_statement_end() {
        let a = analyze(
            "struct S { a: Mutex<Vec<u32>> }\n\
             impl S {\n\
             fn quick(&self) {\n\
             self.a.lock().push(1);\n\
             std::thread::sleep(d);\n\
             }\n\
             }\n",
        );
        assert!(a.findings.is_empty(), "{:#?}", a.findings);
    }

    #[test]
    fn guard_across_sleep_is_flagged() {
        let a = analyze(
            "struct S { a: Mutex<u32> }\n\
             impl S {\n\
             fn slow(&self) {\n\
             let g = self.a.lock();\n\
             std::thread::sleep(d);\n\
             }\n\
             }\n",
        );
        assert_eq!(a.findings.len(), 1, "{:#?}", a.findings);
        assert_eq!(a.findings[0].rule, Rule::LockAcrossBlocking);
        assert_eq!(a.findings[0].class.as_deref(), Some("S.a"));
        assert_eq!(a.findings[0].item.as_deref(), Some("slow"));
    }

    #[test]
    fn scope_exit_releases_guard() {
        let a = analyze(
            "struct S { a: Mutex<u32> }\n\
             impl S {\n\
             fn scoped(&self) {\n\
             { let g = self.a.lock(); }\n\
             std::thread::sleep(d);\n\
             }\n\
             }\n",
        );
        assert!(a.findings.is_empty(), "{:#?}", a.findings);
    }

    #[test]
    fn explicit_drop_releases_guard() {
        let a = analyze(
            "struct S { a: Mutex<u32> }\n\
             impl S {\n\
             fn dropped(&self) {\n\
             let g = self.a.lock();\n\
             drop(g);\n\
             std::thread::sleep(d);\n\
             }\n\
             }\n",
        );
        assert!(a.findings.is_empty(), "{:#?}", a.findings);
    }

    #[test]
    fn one_level_propagation_through_self_call() {
        let a = analyze(
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
             fn outer(&self) {\n\
             let g = self.a.lock();\n\
             self.inner_step();\n\
             }\n\
             fn inner_step(&self) {\n\
             let h = self.b.lock();\n\
             std::thread::sleep(d);\n\
             }\n\
             }\n",
        );
        // Edge a -> b via the call, blocking finding in inner_step
        // itself, and a propagated finding at the call site.
        assert!(a
            .graph
            .edges()
            .iter()
            .any(|e| e.from == "S.a" && e.to == "S.b"));
        assert_eq!(
            a.findings
                .iter()
                .filter(|f| f.rule == Rule::LockAcrossBlocking)
                .count(),
            2,
            "{:#?}",
            a.findings
        );
    }

    #[test]
    fn binding_through_accessor_method() {
        let a = analyze(
            "struct D { shards: Vec<RwLock<u32>> }\n\
             impl D {\n\
             fn shard(&self) -> &RwLock<u32> { &self.shards[0] }\n\
             fn get(&self) {\n\
             let s = self.shard();\n\
             let g = s.read();\n\
             file.write_all(&buf);\n\
             }\n\
             fn direct(&self) { self.shard().read(); }\n\
             }\n",
        );
        assert_eq!(a.findings.len(), 1, "{:#?}", a.findings);
        assert_eq!(a.findings[0].class.as_deref(), Some("D.shards"));
    }

    #[test]
    fn condvar_wait_under_guard_is_flagged() {
        let a = analyze(
            "struct S { m: Mutex<u32>, cv: Condvar }\n\
             impl S {\n\
             fn block(&self) {\n\
             let mut g = self.m.lock();\n\
             self.cv.wait(&mut g);\n\
             }\n\
             }\n",
        );
        assert!(
            a.findings
                .iter()
                .any(|f| f.rule == Rule::LockAcrossBlocking && f.detail.contains("wait")),
            "{:#?}",
            a.findings
        );
    }

    #[test]
    fn wal_seams_under_guard_are_flagged() {
        // Known-dirty fixture for the WAL blocking taxonomy: an index
        // lock held across the blocking append (waits for the group
        // fsync) and across the non-blocking-but-handoff submit (takes
        // the committer's queue mutex) must both fire.
        let a = analyze(
            "struct Idx { index: Mutex<u32> }\n\
             impl Idx {\n\
             fn durable_insert(&self) {\n\
             let g = self.index.lock();\n\
             self.wal.append(payload);\n\
             }\n\
             fn queued_insert(&self) {\n\
             let g = self.index.lock();\n\
             self.wal.submit(payload);\n\
             }\n\
             }\n",
        );
        let walish: Vec<_> = a
            .findings
            .iter()
            .filter(|f| f.rule == Rule::LockAcrossBlocking && f.detail.contains("wal"))
            .collect();
        assert_eq!(walish.len(), 2, "{:#?}", a.findings);
        assert!(walish.iter().any(|f| f.detail.contains("append")));
        assert!(walish.iter().any(|f| f.detail.contains("handoff")));
    }

    #[test]
    fn allow_marker_suppresses() {
        let a = analyze(
            "struct S { a: Mutex<u32> }\n\
             impl S {\n\
             fn slow(&self) {\n\
             let g = self.a.lock();\n\
             // aodb-lint: allow(lock-across-blocking)\n\
             std::thread::sleep(d);\n\
             }\n\
             }\n",
        );
        assert!(a.findings.is_empty(), "{:#?}", a.findings);
    }

    #[test]
    fn branch_arms_merge_guard_states() {
        let a = analyze(
            "struct S { a: Mutex<u32> }\n\
             impl S {\n\
             fn maybe(&self, c: bool) {\n\
             let g = self.a.lock();\n\
             if c {\n\
             drop(g);\n\
             }\n\
             std::thread::sleep(d);\n\
             }\n\
             }\n",
        );
        // On the not-dropped path the guard is still live at the sleep.
        assert_eq!(a.findings.len(), 1, "{:#?}", a.findings);
    }

    #[test]
    fn graph_dot_is_deterministic() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S { fn ab(&self) { let g = self.a.lock(); self.b.lock().clone(); } }\n";
        let d1 = analyze(src).graph.to_dot();
        let d2 = analyze(src).graph.to_dot();
        assert_eq!(d1, d2);
        assert!(d1.contains("\"S.a\" -> \"S.b\""), "{d1}");
    }
}
