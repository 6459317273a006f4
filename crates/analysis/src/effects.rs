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

use crate::dataflow::{
    eval_flow, for_head_in, is_helper_call, statements, FieldClasses, FileModel, FnItem, Transfer,
};
use crate::lexer::{is_method_call, TokKind};
use crate::taxonomy::{is_send_method, ITER_METHODS, PERSIST_METHODS, REPLY_METHODS};

// ------------------------------------------------------------- helpers

/// The sinks, as findings name them, in propagation priority: a helper
/// that both sends and persists counts as a send.
const SINKS: [&str; 3] = ["send payload", "reply delivery", "persisted write"];

/// The sink a method call named `name` is, as an index into [`SINKS`].
fn sink(name: &str) -> Option<usize> {
    if is_send_method(name) {
        Some(0)
    } else if REPLY_METHODS.contains(&name) {
        Some(1)
    } else {
        PERSIST_METHODS.contains(&name).then_some(2)
    }
}

/// The sink a call to `f` amounts to, for one-level call propagation:
/// the first of [`SINKS`] that its body's method calls reach.
pub(crate) fn helper_sink(model: &FileModel, f: &FnItem) -> Option<&'static str> {
    (f.body_range.0..f.body_range.1)
        .filter(|&j| is_method_call(&model.toks, j))
        .filter_map(|j| sink(&model.toks[j].text))
        .min()
        .map(|k| SINKS[k])
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
    /// Callee name → the sink a call to it amounts to (same-file-first
    /// resolved in [`crate::replay`]).
    pub callee_sink: &'a dyn Fn(&str) -> Option<&'static str>,
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
        callee_sink: &'a dyn Fn(&str) -> Option<&'static str>,
        is_handler: bool,
    ) -> EffectCx<'a> {
        EffectCx {
            model,
            owner,
            classes,
            callee_sink,
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
    /// unordered class, or a tainted binding's provenance. A `self.f` of
    /// a known owner resolves strictly: when the owner's `f` is ordered,
    /// a same-named unordered field elsewhere is a different class.
    /// Closure-parameter or struct-update receivers (`s.live.iter()`
    /// inside a `mutate` closure) fall back to a corpus-unique field name.
    fn resolve_iter_receiver(&self, s: &TState, j: usize) -> Option<(String, Option<u16>)> {
        let classes = self.classes;
        classes.resolve_receiver(
            &self.model.toks,
            j.checked_sub(2)?, // past the `.`
            self.owner,
            true,
            |name| {
                let (_, src, class) = s.tainted.iter().rev().find(|(n, _, _)| n == name)?;
                Some((src.clone(), *class))
            },
            |id| {
                let name = &classes.names[id as usize];
                (format!("iteration order of `{name}`"), Some(id))
            },
        )
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
                if let Some(k) = sink(name) {
                    scan.sinks.push((t.line, SINKS[k].into()));
                }
            }

            // Helper-call sinks: `self.helper(..)` / free `helper(..)`
            // where the callee sends, delivers, or persists.
            if is_helper_call(toks, j, false) && !ITER_METHODS.contains(&name) {
                if let Some(kind) = (self.callee_sink)(name) {
                    scan.sinks
                        .push((t.line, format!("{kind} via helper `{name}`")));
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
        let body: Vec<usize> = (f.body_range.0..f.body_range.1).collect();
        let stmts = statements(toks, &body, true);
        let tail = *stmts
            .last()
            .expect("a body splits into at least one statement");
        // An empty tail: the body ends in a statement, not a tail
        // expression. `for`/`while`/`loop`/`let` in tail position are
        // statements — their trailing `}` is not a value the handler
        // replies with.
        let Some(&tail_start) = tail.first() else {
            return;
        };
        if ["for", "while", "loop", "let"]
            .iter()
            .any(|kw| toks[tail_start].is_ident(kw))
        {
            return;
        }
        let state = TState {
            tainted: self.all_tainted.clone(),
        };
        let line = toks[tail_start].line;
        let scan = self.scan_stmt(&state, tail);
        self.reply_value(scan, line);
    }

    /// A reply value built from a tainted source is a finding.
    fn reply_value(&mut self, scan: StmtScan, line: u32) {
        if let Some((src, class)) = scan.sources.first() {
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
        self.reply_value(scan, self.model.toks[toks[0]].line);
    }
}

/// Applies one straight-line run: split into statements at top-level
/// `;`, handle `for pat in expr` heads, scan each statement.
fn run_tokens(cx: &mut EffectCx<'_>, s: &mut TState, idxs: &[usize]) {
    let toks = &cx.model.toks;

    // `for pat in <expr>` loop heads: taint the pattern bindings when
    // the iterated expression is dirty.
    if let Some(in_pos) = for_head_in(toks, idxs) {
        let scan = cx.scan_stmt(s, &idxs[in_pos + 1..]);
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

    for stmt in statements(toks, idxs, false) {
        let scan = cx.scan_stmt(s, stmt);
        cx.apply_stmt(s, scan);
    }
}
