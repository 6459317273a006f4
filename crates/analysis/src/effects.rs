//! Nondeterminism-source taxonomy and the per-turn effect walk.
//!
//! This module is the engine under the replaycheck pass
//! ([`crate::replay`]): it classifies where nondeterminism can *enter* a
//! turn and walks each turn function's control-flow tree to decide
//! whether a tainted value *leaves* it through an observable effect.
//!
//! **Sources** (the taxonomy):
//!
//! * unordered-collection iteration — `iter`/`keys`/`values`/`drain`/
//!   `into_iter`/… on a field whose type mentions `HashMap`/`HashSet`
//!   (registered as a class `Owner.field`, lockcheck-style);
//! * RNG — `thread_rng()`, `rand::…`, free `random()`;
//! * thread identity — `thread::current()`;
//! * ambient environment — `env::var`/`env::vars`, `fs::read*`,
//!   `File::open` (reads outside the `Store`/`ActorContext` API);
//! * ambient wall-clock — `Instant::now()`/`SystemTime::now()`; flagged
//!   unconditionally by the `ambient-clock` rule rather than traced,
//!   because time is observable even through control flow.
//!
//! **Sinks**: a send payload (`tell`/`ask`/`ask_with`/`call`/
//! `call_timeout`/`ask_replayable`), a `ReplyTo` resolution
//! (`.deliver(..)` or the handler's reply value), or a persisted write
//! (`mutate`/`save`/`flush`/…). A call to a same-corpus helper that
//! itself sends, delivers, or persists counts as a sink too — one level
//! of `self.`/free-call propagation, matching lockcheck's soundness
//! envelope.
//!
//! The walk is statement-granular: a statement that *uses* a source (or
//! a variable tainted by one) and *contains* a sink is a finding; a
//! `let` whose right-hand side does so taints its binding; `for pat in
//! tainted` taints the loop bindings. Receivers resolve like lockcheck:
//! owner-qualified field first, then corpus-unique field name; an
//! unresolvable receiver is skipped (may miss, never crashes).

use std::collections::BTreeSet;

use crate::dataflow::{eval_flow, FieldClasses, FileModel, FnItem, Transfer};
use crate::lexer::{is_method_call, Tok, TokKind};
use crate::taxonomy::{
    is_keywordish, is_send_method, ITER_METHODS, PERSIST_METHODS, REPLY_METHODS,
};

// ------------------------------------------------------------- helpers

/// Effect summary of one function, for one-level call propagation: does
/// calling it send, deliver a reply, or write persisted state?
#[derive(Clone, Copy, Default)]
pub struct EffectFacts {
    /// Contains a `.tell/.ask/.call/…(` send site.
    pub sends: bool,
    /// Contains a `.deliver(` reply resolution.
    pub delivers: bool,
    /// Contains a `.mutate/.save/.flush/…(` persisted write.
    pub persists: bool,
}

impl EffectFacts {
    /// Any observable effect at all.
    pub fn any(&self) -> bool {
        self.sends || self.delivers || self.persists
    }
}

/// Scans a function body's raw tokens for effect facts.
pub fn effect_facts(model: &FileModel, f: &FnItem) -> EffectFacts {
    let toks = &model.toks;
    let mut facts = EffectFacts::default();
    for j in f.body_range.0..f.body_range.1 {
        if !is_method_call(toks, j) {
            continue;
        }
        let name = toks[j].text.as_str();
        if is_send_method(name) {
            facts.sends = true;
        } else if REPLY_METHODS.contains(&name) {
            facts.delivers = true;
        } else if PERSIST_METHODS.contains(&name) {
            facts.persists = true;
        }
    }
    facts
}

// ----------------------------------------------------------- the walk

/// One taint event observed at a sink.
pub struct EffectFinding {
    /// Line of the sink.
    pub line: u32,
    /// What kind of sink was reached (`send payload`, `reply`, …).
    pub sink: String,
    /// Provenance of the taint (`iteration order of Owner.field`, …).
    pub source: String,
    /// Unordered class involved, if the source was iteration.
    pub class: Option<String>,
}

/// A direct ambient-clock read.
pub struct ClockFinding {
    /// Line of the `::now()` call.
    pub line: u32,
    /// The matched path (`Instant::now`).
    pub what: String,
}

/// Dataflow state: tainted local bindings with their provenance (and
/// the class id when the source was unordered iteration).
#[derive(Clone, PartialEq, Default)]
struct TState {
    tainted: Vec<(String, String, Option<u16>)>,
}

/// Walk context for one turn function.
pub(crate) struct EffectCx<'a> {
    pub model: &'a FileModel,
    pub owner: Option<&'a str>,
    pub classes: &'a FieldClasses,
    /// Callee name → effect facts (same-file-first resolved in
    /// [`crate::replay`]; here just a flat map for this file's view).
    pub callee_effects: &'a dyn Fn(&str) -> Option<EffectFacts>,
    /// True when the fn is a `Handler::handle` (its reply value is a
    /// sink).
    pub is_handler: bool,
    pub findings: Vec<EffectFinding>,
    pub clocks: Vec<ClockFinding>,
    /// Dedup: (line, sink kind).
    seen: BTreeSet<(u32, String)>,
    /// Union of every binding ever tainted (for the tail-expression
    /// reply check, which runs after the path-sensitive walk).
    all_tainted: Vec<(String, String, Option<u16>)>,
}

/// What one statement scan observed.
#[derive(Default)]
struct StmtScan {
    /// Direct sources used in the statement.
    sources: Vec<(String, Option<u16>)>,
    /// Sinks present: (line, kind).
    sinks: Vec<(u32, String)>,
    /// `let` binding target, if the statement is a binding.
    binds: Option<String>,
}

impl EffectCx<'_> {
    /// Creates the context.
    pub(crate) fn new<'a>(
        model: &'a FileModel,
        owner: Option<&'a str>,
        classes: &'a FieldClasses,
        callee_effects: &'a dyn Fn(&str) -> Option<EffectFacts>,
        is_handler: bool,
    ) -> EffectCx<'a> {
        EffectCx {
            model,
            owner,
            classes,
            callee_effects,
            is_handler,
            findings: Vec::new(),
            clocks: Vec::new(),
            seen: BTreeSet::new(),
            all_tainted: Vec::new(),
        }
    }

    /// Runs the walk over a function body and (for handlers) checks the
    /// tail expression against the union of tainted names.
    pub(crate) fn walk_fn(&mut self, f: &FnItem) {
        eval_flow(&f.body, TState::default(), f.end_line, self);
        if self.is_handler {
            self.check_tail(f);
        }
    }

    /// Resolves the receiver of an iteration method at token `j` to an
    /// unordered class, or a tainted binding's provenance.
    fn resolve_iter_receiver(&self, s: &TState, j: usize) -> Option<(String, Option<u16>)> {
        let toks = &self.model.toks;
        if j < 2 {
            return None;
        }
        let r = j - 2; // past the `.`
        if toks[r].kind != TokKind::Ident {
            return None;
        }
        let field = toks[r].text.as_str();
        let qualified = r >= 1 && toks[r - 1].is_punct('.');
        let base_self = r >= 2 && qualified && toks[r - 2].is_ident("self");
        if base_self {
            if let Some(owner) = self.owner {
                if let Some(id) = self.classes.by_owner_field(owner, field) {
                    return Some((
                        format!("iteration order of `{}`", self.classes.names[id as usize]),
                        Some(id),
                    ));
                }
                // The owner is known and this field of it is ordered —
                // a same-named unordered field elsewhere is a different
                // class, so the corpus-unique fallback must not fire.
                return None;
            }
        }
        if !qualified {
            if let Some((_, src, class)) = s.tainted.iter().rev().find(|(n, _, _)| n == field) {
                return Some((src.clone(), *class));
            }
        }
        // Closure-parameter or struct-update receivers (`s.live.iter()`
        // inside a `mutate` closure) reach here as `qualified` but not
        // `self`-based: fall back to a corpus-unique field name.
        self.classes.unique_field(field).map(|id| {
            (
                format!("iteration order of `{}`", self.classes.names[id as usize]),
                Some(id),
            )
        })
    }

    /// Scans one statement's tokens for sources, sinks, and bindings.
    fn scan_stmt(&mut self, s: &TState, idxs: &[usize]) -> StmtScan {
        let toks = &self.model.toks;
        let mut scan = StmtScan::default();

        // `let <pattern> = ...` opens a binding: the first
        // lowercase-initial ident in the pattern (`let x`, `let mut x`,
        // `let Some(x)`; a tuple pattern binds only its first name — a
        // documented narrowing, erring toward missed taint).
        if let Some(&first) = idxs.first() {
            if toks[first].is_ident("let") {
                let mut depth = 0i32;
                for &j in &idxs[1..] {
                    let t = &toks[j];
                    if t.is_punct('=') && depth == 0 {
                        break;
                    }
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                        depth -= 1;
                    } else if t.kind == TokKind::Ident
                        && t.text != "mut"
                        && t.text.chars().next().is_some_and(char::is_lowercase)
                    {
                        scan.binds = Some(t.text.clone());
                        break;
                    }
                }
            }
        }

        for &j in idxs {
            let t = &toks[j];
            if t.kind != TokKind::Ident {
                continue;
            }
            let prev_dot = j >= 1 && toks[j - 1].is_punct('.');
            let prev_path = j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':');
            let next_paren = toks.get(j + 1).is_some_and(|n| n.is_punct('('));
            let name = t.text.as_str();

            // Ambient clock: `Instant::now()` / `SystemTime::now()`.
            if name == "now" && prev_path && next_paren && j >= 3 {
                let base = toks[j - 3].text.as_str();
                if base == "Instant" || base == "SystemTime" {
                    self.clocks.push(ClockFinding {
                        line: t.line,
                        what: format!("{base}::now"),
                    });
                }
            }

            // Unordered iteration.
            if prev_dot && next_paren && ITER_METHODS.contains(&name) {
                if let Some((src, class)) = self.resolve_iter_receiver(s, j) {
                    scan.sources.push((src, class));
                }
            }

            // RNG / thread identity / env / FS reads.
            if next_paren && !prev_dot {
                match name {
                    "thread_rng" | "random" => {
                        scan.sources.push((format!("RNG (`{name}()`)"), None));
                    }
                    "current" if prev_path && j >= 3 && toks[j - 3].is_ident("thread") => {
                        scan.sources
                            .push(("thread identity (`thread::current()`)".into(), None));
                    }
                    "var" | "vars" | "var_os"
                        if prev_path && j >= 3 && toks[j - 3].is_ident("env") =>
                    {
                        scan.sources
                            .push((format!("environment read (`env::{name}`)"), None));
                    }
                    "open" if prev_path && j >= 3 && toks[j - 3].is_ident("File") => {
                        scan.sources
                            .push(("filesystem read (`File::open`)".into(), None));
                    }
                    n if n.starts_with("read")
                        && prev_path
                        && j >= 3
                        && toks[j - 3].is_ident("fs") =>
                    {
                        scan.sources
                            .push((format!("filesystem read (`fs::{n}`)"), None));
                    }
                    _ => {}
                }
            }
            if !prev_dot
                && !prev_path
                && name == "rand"
                && toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
            {
                scan.sources.push(("RNG (`rand::…`)".into(), None));
            }

            // Tainted-binding use (skip the binding target itself and
            // path/field positions — `x.y` only taints via receiver `x`).
            if !prev_dot && !prev_path && scan.binds.as_deref() != Some(name) {
                if let Some((_, src, class)) = s.tainted.iter().rev().find(|(n, _, _)| n == name) {
                    scan.sources.push((src.clone(), *class));
                }
            }

            // Sinks.
            if prev_dot && next_paren {
                if is_send_method(name) {
                    scan.sinks.push((t.line, "send payload".into()));
                } else if REPLY_METHODS.contains(&name) {
                    scan.sinks.push((t.line, "reply delivery".into()));
                } else if PERSIST_METHODS.contains(&name) {
                    scan.sinks.push((t.line, "persisted write".into()));
                }
            }

            // Helper-call sinks: `self.helper(..)` / free `helper(..)`
            // where the callee sends, delivers, or persists.
            if next_paren && !is_keywordish(name) && !ITER_METHODS.contains(&name) {
                let self_method = prev_dot && j >= 2 && toks[j - 2].is_ident("self");
                let free_call = !prev_dot && !prev_path;
                if self_method || free_call {
                    if let Some(facts) = (self.callee_effects)(name) {
                        if facts.any() {
                            let kind = if facts.sends {
                                "send payload"
                            } else if facts.delivers {
                                "reply delivery"
                            } else {
                                "persisted write"
                            };
                            scan.sinks
                                .push((t.line, format!("{kind} via helper `{name}`")));
                        }
                    }
                }
            }
        }
        scan
    }

    /// Applies one statement scan: emits findings for taint reaching a
    /// sink, and taints the statement's binding when the RHS is dirty.
    fn apply_stmt(&mut self, s: &mut TState, scan: StmtScan) {
        if let Some((src, class)) = scan.sources.first() {
            for (line, sink) in &scan.sinks {
                if self.seen.insert((*line, sink.clone())) {
                    self.findings.push(EffectFinding {
                        line: *line,
                        sink: sink.clone(),
                        source: src.clone(),
                        class: class.map(|id| self.classes.names[id as usize].clone()),
                    });
                }
            }
            if let Some(name) = scan.binds {
                if !s.tainted.iter().any(|(n, _, _)| *n == name) {
                    s.tainted.push((name.clone(), src.clone(), *class));
                    self.note_tainted(name, src.clone(), *class);
                }
            }
        } else if let Some(name) = scan.binds {
            // A clean right-hand side rebinds (strong update): the old
            // taint no longer describes this name.
            s.tainted.retain(|(n, _, _)| *n != name);
        }
    }

    fn note_tainted(&mut self, name: String, src: String, class: Option<u16>) {
        if !self.all_tainted.iter().any(|(n, _, _)| *n == name) {
            self.all_tainted.push((name, src, class));
        }
    }

    /// Tail-expression reply check: the final statement of a handler
    /// body with no trailing `;` is the reply value. Uses the union of
    /// tainted names (path-insensitive by design — a reply built from a
    /// possibly-tainted binding is still nondeterministic on some path).
    fn check_tail(&mut self, f: &FnItem) {
        let toks = &self.model.toks;
        let (start, end) = f.body_range;
        // Last top-level statement boundary within the body.
        let mut depth = 0i32;
        let mut tail_start = start;
        for (off, t) in toks[start..end].iter().enumerate() {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct(';') && depth == 0 {
                tail_start = start + off + 1;
            }
        }
        if start == end {
            return;
        }
        let last = end - 1;
        if toks[last].is_punct(';') || tail_start > last {
            return; // body ends in a statement, not a tail expression
        }
        // `for`/`while`/`loop`/`let` in tail position are statements —
        // their trailing `}` is not a value the handler replies with.
        if ["for", "while", "loop", "let"]
            .iter()
            .any(|kw| toks[tail_start].is_ident(kw))
        {
            return;
        }
        let state = TState {
            tainted: self.all_tainted.clone(),
        };
        let idxs: Vec<usize> = (tail_start..end).collect();
        let scan = self.scan_stmt(&state, &idxs);
        if let Some((src, class)) = scan.sources.first() {
            let line = toks[tail_start].line;
            if self.seen.insert((line, "reply value".into())) {
                self.findings.push(EffectFinding {
                    line,
                    sink: "reply value".into(),
                    source: src.clone(),
                    class: class.map(|id| self.classes.names[id as usize].clone()),
                });
            }
        }
    }
}

impl Transfer<TState> for EffectCx<'_> {
    fn run(&mut self, s: &mut TState, idxs: &[usize], _depth: u16) {
        run_tokens(self, s, idxs);
    }

    /// An explicit `return expr` of a handler is a reply value.
    fn on_return(&mut self, s: &mut TState, toks: &[usize]) {
        if !self.is_handler || toks.is_empty() {
            return;
        }
        let scan = self.scan_stmt(s, toks);
        if let Some((src, class)) = scan.sources.first() {
            let line = self.model.toks[toks[0]].line;
            if self.seen.insert((line, "reply value".into())) {
                self.findings.push(EffectFinding {
                    line,
                    sink: "reply value".into(),
                    source: src.clone(),
                    class: class.map(|id| self.classes.names[id as usize].clone()),
                });
            }
        }
    }
}

/// Applies one straight-line run: split into statements at top-level
/// `;`, handle `for pat in expr` heads, scan each statement.
fn run_tokens(cx: &mut EffectCx<'_>, s: &mut TState, idxs: &[usize]) {
    let toks = &cx.model.toks;

    // `for pat in <expr>` loop heads: taint the pattern bindings when
    // the iterated expression is dirty.
    if let Some(in_pos) = for_head_in(toks, idxs) {
        let rhs: Vec<usize> = idxs[in_pos + 1..].to_vec();
        let scan = cx.scan_stmt(s, &rhs);
        if let Some((src, class)) = scan.sources.first() {
            for &j in &idxs[..in_pos] {
                let t = &toks[j];
                if t.kind == TokKind::Ident
                    && t.text != "mut"
                    && !s.tainted.iter().any(|(n, _, _)| *n == t.text)
                {
                    s.tainted.push((t.text.clone(), src.clone(), *class));
                    cx.note_tainted(t.text.clone(), src.clone(), *class);
                }
            }
        }
        // Heads carry no sinks; sources feeding sends directly inside a
        // head (`for x in m.keys() { … }`) taint the bindings above.
        return;
    }

    let mut depth = 0i32;
    let mut stmt: Vec<usize> = Vec::new();
    for &j in idxs {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct(';') && depth <= 0 {
            let scan = cx.scan_stmt(s, &stmt);
            cx.apply_stmt(s, scan);
            stmt.clear();
            continue;
        }
        stmt.push(j);
    }
    if !stmt.is_empty() {
        let scan = cx.scan_stmt(s, &stmt);
        cx.apply_stmt(s, scan);
    }
}

/// Detects a `pat in expr` loop head: returns the position (within
/// `idxs`) of the `in` keyword at depth 0, if the run looks like one.
fn for_head_in(toks: &[Tok], idxs: &[usize]) -> Option<usize> {
    let mut depth = 0i32;
    for (pos, &j) in idxs.iter().enumerate() {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct(';') || t.is_punct('=') {
            return None; // an ordinary statement, not a loop head
        } else if depth == 0 && t.is_ident("in") && pos > 0 {
            return Some(pos);
        }
    }
    None
}
